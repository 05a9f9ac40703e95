//! Simulator throughput ("simperf"): how fast the simulator itself runs
//! on the host, not what the simulated machine does.
//!
//! Part 1 measures simulated cycles per host second for the event-driven
//! fast-forwarding loop ([`Machine::run`]) against the cycle-by-cycle
//! reference ([`Machine::run_naive`]) — the two produce cycle-for-cycle
//! identical reports (see `tests/differential.rs`), so the ratio is pure
//! simulator speedup. Timings are taken serially (one run at a time) so
//! wall clocks are not polluted by sibling jobs.
//!
//! Part 2 measures the wall clock of a full Figure-6-style sweep executed
//! serially versus fanned across host threads with
//! [`glsc_bench::run_jobs`], which is how the figure benches run it.
//!
//! Host timings are not cacheable, so this target skips the job store;
//! output is still written to `results/simperf.txt`.
//!
//! Honors `GLSC_DATASETS=tiny` and `GLSC_BENCH_THREADS` like the figure
//! benches.

use glsc_bench::{
    bench_threads, collect_errors, config, datasets, ds_label, finish_figure, fleet_kernel_job,
    fleet_micro_job, geomean, run, run_jobs, run_jobs_fleet, FigureOutput, FleetJobSpec, JobStore,
    CONFIGS,
};
use glsc_kernels::micro::{MicroParams, Scenario};
use glsc_kernels::{build_named, run_workload, Dataset, Variant, KERNEL_NAMES};
use glsc_sim::Machine;
use std::time::Instant;

/// Runs one workload with either loop, returning (simulated cycles,
/// best-of-`reps` host seconds).
fn time_run(
    kernel: &str,
    ds: Dataset,
    shape: (usize, usize),
    width: usize,
    naive: bool,
    reps: u32,
) -> (u64, f64) {
    let cfg = config(shape.0, shape.1, width);
    let w = build_named(kernel, ds, Variant::Glsc, &cfg).expect("known kernel");
    let mut cycles = 0;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut machine = Machine::new(cfg.clone());
        w.image.apply(machine.mem_mut().backing_mut());
        machine.load_program(w.program.clone());
        let t0 = Instant::now();
        let report = if naive {
            machine.run_naive()
        } else {
            machine.run()
        }
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        best = best.min(t0.elapsed().as_secs_f64());
        cycles = report.cycles;
    }
    (cycles, best)
}

fn main() {
    let mut out = FigureOutput::new("simperf");
    out.header(
        "simperf part 1: fast-forward vs naive cycle loop (GLSC, 4-wide)",
        "Mcyc/s = simulated cycles per host second, best of 3; identical reports",
    );
    out.line(format!(
        "{:<6} {:>3} {:>6} {:>12} {:>12} {:>14} {:>9}",
        "bench", "ds", "shape", "sim cycles", "naive Mc/s", "fastfwd Mc/s", "speedup"
    ));
    let mut speedups = Vec::new();
    for shape in [(1usize, 1usize), (4, 4)] {
        for kernel in KERNEL_NAMES {
            for ds in datasets() {
                let (cycles, t_naive) = time_run(kernel, ds, shape, 4, true, 3);
                let (cycles_ff, t_ff) = time_run(kernel, ds, shape, 4, false, 3);
                assert_eq!(cycles, cycles_ff, "fast-forward must not change timing");
                let speedup = t_naive / t_ff;
                speedups.push(speedup);
                out.line(format!(
                    "{:<6} {:>3} {:>6} {:>12} {:>12.2} {:>14.2} {:>8.2}x",
                    kernel,
                    ds_label(ds),
                    format!("{}x{}", shape.0, shape.1),
                    cycles,
                    cycles as f64 / t_naive / 1e6,
                    cycles as f64 / t_ff / 1e6,
                    speedup
                ));
            }
        }
    }
    out.blank();
    out.line(format!(
        "fast-forward speedup, geomean: {:.2}x",
        geomean(&speedups)
    ));

    let threads = bench_threads();
    out.header(
        "simperf part 2: figure-sweep wall clock, serial vs parallel",
        "the Figure 6 job set: kernels x datasets x {Base,GLSC} x 4 shapes, 4-wide",
    );
    let mut params = Vec::new();
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            for variant in [Variant::Base, Variant::Glsc] {
                for cfg in CONFIGS {
                    params.push((kernel, ds, variant, cfg));
                }
            }
        }
    }
    let wall = |threads: usize| {
        let jobs: Vec<_> = params
            .iter()
            .map(|&(kernel, ds, variant, cfg)| {
                move || run(kernel, ds, variant, cfg, 4).report.cycles
            })
            .collect();
        let t0 = Instant::now();
        let results = run_jobs(jobs, threads);
        (t0.elapsed().as_secs_f64(), results)
    };
    let (t_serial, r_serial) = wall(1);
    let (t_par, r_par) = wall(threads);
    assert_eq!(r_serial, r_par, "parallel harness must be deterministic");
    let errors = collect_errors(&r_par);
    out.line(format!("jobs: {}", params.len()));
    out.line(format!("serial   (1 thread):  {:>8.3} s", t_serial));
    out.line(format!("parallel ({threads:>2} threads): {:>8.3} s", t_par));
    out.line(format!("harness speedup: {:.2}x", t_serial / t_par));

    out.header(
        "simperf part 3: fleet engine vs one-machine-per-job (DESIGN.md 13)",
        "aggregate simulated cycles per host second over a whole sweep; identical reports",
    );
    // Sweep (a): a 512-job screening grid — short microbenchmark runs at
    // the paper's machine shapes, the regime where per-job setup
    // dominates and the fleet's pooling/CoW/batched stepping pays most.
    // Its parameters are fixed (independent of GLSC_DATASETS) so the
    // recorded ratio is comparable across runs.
    let screening = measure_sweep(&mut out, "screening-512", screening_jobs, 1, 1);
    // Sweep (b): the part-2 figure job set end to end, both paths fanned
    // across the same host threads — the realistic speedup a figure run
    // sees, where long simulations dilute per-job overhead.
    let suite = measure_sweep(&mut out, "figure-suite", suite_jobs, threads, threads);
    out.blank();
    out.line(format!(
        "fleet-vs-solo throughput: {:.2}x on screening-512 (serial), {:.2}x on figure-suite ({threads} threads)",
        screening.ratio(),
        suite.ratio()
    ));
    write_fleet_json(&screening, &suite, threads);

    out.header(
        "simperf part 4: checkpoint overhead and crash recovery (DESIGN.md 14)",
        "durable snapshots through the versioned codec; reports identical at every cadence",
    );
    let recovery = measure_recovery(&mut out);
    let fleet_recovery = measure_fleet_recovery(&mut out);
    write_recovery_json(&recovery, &fleet_recovery);

    std::process::exit(finish_figure(out, &errors));
}

/// One measured sweep half: the solo or fleet side's aggregate numbers.
struct SweepSide {
    host_sec: f64,
    sim_cycles: u64,
    jobs: usize,
}

impl SweepSide {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.host_sec
    }
    fn mcyc_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.host_sec / 1e6
    }
}

/// A measured solo-vs-fleet sweep comparison.
struct SweepResult {
    label: &'static str,
    solo: SweepSide,
    fleet: SweepSide,
    solo_threads: usize,
    fleet_threads: usize,
}

impl SweepResult {
    fn ratio(&self) -> f64 {
        self.fleet.mcyc_per_sec() / self.solo.mcyc_per_sec()
    }
}

/// The 512-job screening grid: every §5.2 scenario × Fig. 6 shape ×
/// width {1,4} × {Base, GLSC} × eight dataset seeds, one iteration per
/// thread. Eight distinct machine configurations over 512 short jobs —
/// the parameter-screening regime, where per-job machine construction
/// dominates the solo path and the fleet's pooling amortizes it 64:1.
fn screening_jobs() -> Vec<FleetJobSpec> {
    let mut jobs = Vec::new();
    for seed in [72, 73, 74, 75, 76, 77, 78, 79] {
        for scenario in Scenario::ALL {
            for shape in CONFIGS {
                for width in [1, 4] {
                    for variant in [Variant::Base, Variant::Glsc] {
                        let params = MicroParams {
                            iters: 1,
                            private_lines: 8,
                            shared_lines: 32,
                            seed,
                        };
                        jobs.push(fleet_micro_job(scenario, params, variant, shape, width));
                    }
                }
            }
        }
    }
    jobs
}

/// The part-2 figure job set as fleet specs.
fn suite_jobs() -> Vec<FleetJobSpec> {
    let mut jobs = Vec::new();
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            for variant in [Variant::Base, Variant::Glsc] {
                for shape in CONFIGS {
                    jobs.push(fleet_kernel_job(kernel, ds, variant, shape, 4));
                }
            }
        }
    }
    jobs
}

/// Times one sweep through both paths — the classic build-run-drop loop
/// under [`run_jobs`] and the batched [`run_jobs_fleet`] — asserting the
/// per-job cycle counts agree, and prints the comparison rows. Workload
/// construction is timed on both sides; neither path consults the job
/// store (host timings are not cacheable). Each side is run
/// `SWEEP_REPS` times and the best wall time kept (as in part 1): the
/// first fleet in a process pays one-time allocator warm-up that would
/// otherwise swamp the steady-state throughput a sweep actually sees.
fn measure_sweep(
    out: &mut FigureOutput,
    label: &'static str,
    make: fn() -> Vec<FleetJobSpec>,
    solo_threads: usize,
    fleet_threads: usize,
) -> SweepResult {
    const SWEEP_REPS: usize = 3;
    let store = JobStore::disabled();

    let mut t_solo = f64::INFINITY;
    let mut solo_cycles: Vec<u64> = Vec::new();
    for _ in 0..SWEEP_REPS {
        let t0 = Instant::now();
        let specs = make();
        let solo_closures: Vec<_> = specs
            .iter()
            .map(|s| || run_workload(&s.workload, &s.cfg).unwrap().report.cycles)
            .collect();
        solo_cycles = run_jobs(solo_closures, solo_threads)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect();
        drop(specs);
        t_solo = t_solo.min(t0.elapsed().as_secs_f64());
    }

    let mut t_fleet = f64::INFINITY;
    for _ in 0..SWEEP_REPS {
        let t1 = Instant::now();
        let specs = make();
        let fleet_cycles: Vec<u64> = run_jobs_fleet(&store, specs, fleet_threads)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")).report.cycles)
            .collect();
        t_fleet = t_fleet.min(t1.elapsed().as_secs_f64());
        assert_eq!(solo_cycles, fleet_cycles, "fleet must not change timing");
    }
    let jobs = solo_cycles.len();
    let sim_cycles: u64 = solo_cycles.iter().sum();
    let result = SweepResult {
        label,
        solo: SweepSide {
            host_sec: t_solo,
            sim_cycles,
            jobs,
        },
        fleet: SweepSide {
            host_sec: t_fleet,
            sim_cycles,
            jobs,
        },
        solo_threads,
        fleet_threads,
    };
    out.line(format!(
        "{label}: {jobs} jobs, {:.1} Msim-cycles",
        sim_cycles as f64 / 1e6
    ));
    for (name, side, threads) in [
        ("solo ", &result.solo, solo_threads),
        ("fleet", &result.fleet, fleet_threads),
    ] {
        out.line(format!(
            "  {name} ({threads:>2} thr): {:>8.3} s  {:>8.1} jobs/s  {:>10.2} Mcyc/s",
            side.host_sec,
            side.jobs_per_sec(),
            side.mcyc_per_sec()
        ));
    }
    out.line(format!("  fleet-vs-solo: {:.2}x", result.ratio()));
    result
}

/// One kernel's checkpoint-overhead and crash-recovery measurements.
struct RecoveryRow {
    kernel: &'static str,
    total_cycles: u64,
    base_sec: f64,
    /// Per cadence: (cadence, checkpoints written, bytes per checkpoint,
    /// wall seconds, overhead fraction vs `base_sec`).
    cadences: Vec<(u64, u64, usize, f64, f64)>,
    /// Crash drill at [`RECOVERY_CADENCE`].
    crash_cycle: u64,
    checkpoint_cycle: u64,
    recover_sec: f64,
    naive_restart_sec: f64,
}

const RECOVERY_CADENCE: u64 = 5_000;
const BEST_OF: usize = 3;

/// Runs the uninterrupted baseline, the cadence sweep (sliced stepping +
/// a durable snapshot written tmp+rename at every pause, the service's
/// exact write path), and the crash drill (restore the last checkpoint
/// before a simulated crash at ~60% progress and finish, vs starting
/// over). Every variant's final report must equal the baseline's.
fn measure_recovery(out: &mut FigureOutput) -> Vec<RecoveryRow> {
    use glsc_sim::SlicedRun;
    let dir = std::env::temp_dir().join(format!("glsc-simperf-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("checkpoint scratch dir");
    let cfg = config(1, 1, 4);
    let ds = datasets()[0];

    let fresh = |kernel: &str| {
        let w = build_named(kernel, ds, Variant::Glsc, &cfg).expect("known kernel");
        let mut machine = Machine::new(cfg.clone());
        w.image.apply(machine.mem_mut().backing_mut());
        machine.load_program(w.program.clone());
        machine
    };
    // Encoded straight from the machine into one reused buffer, as the
    // service's checkpoint writer does.
    let mut buf = Vec::new();
    let mut write_ckpt = |machine: &Machine| -> usize {
        machine.write_snapshot(&mut buf);
        let path = dir.join("ckpt.snap");
        let tmp = dir.join("ckpt.snap.tmp");
        std::fs::write(&tmp, &buf)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .expect("write checkpoint");
        buf.len()
    };

    out.line(format!(
        "{:<6} {:>10} {:>9} | {:>8} {:>6} {:>9} {:>9}",
        "bench", "cycles", "base s", "cadence", "ckpts", "ckpt KiB", "overhead"
    ));
    let mut rows = Vec::new();
    for kernel in ["GBC", "TMS"] {
        let mut base_sec = f64::INFINITY;
        let mut total_cycles = 0;
        for _ in 0..BEST_OF {
            let mut machine = fresh(kernel);
            let t0 = Instant::now();
            let report = machine.run().unwrap_or_else(|e| panic!("{kernel}: {e}"));
            base_sec = base_sec.min(t0.elapsed().as_secs_f64());
            total_cycles = report.cycles;
        }

        let mut cadences = Vec::new();
        for cadence in [1_000u64, 5_000, 20_000] {
            let mut wall = f64::INFINITY;
            let mut ckpts = 0;
            let mut ckpt_bytes = 0;
            for _ in 0..BEST_OF {
                let mut machine = fresh(kernel);
                let mut run = SlicedRun::new(&machine);
                let t0 = Instant::now();
                let (mut n, mut report) = (0, None);
                while report.is_none() {
                    report = machine.run_for(&mut run, cadence).unwrap();
                    if report.is_none() {
                        ckpt_bytes = write_ckpt(&machine);
                        n += 1;
                    }
                }
                wall = wall.min(t0.elapsed().as_secs_f64());
                ckpts = n;
                assert_eq!(
                    report.unwrap().cycles,
                    total_cycles,
                    "cadence changed timing"
                );
            }
            let overhead = wall / base_sec - 1.0;
            cadences.push((cadence, ckpts, ckpt_bytes, wall, overhead));
            out.line(format!(
                "{:<6} {:>10} {:>9.4} | {:>8} {:>6} {:>9.1} {:>8.0}%",
                kernel,
                total_cycles,
                base_sec,
                cadence,
                ckpts,
                ckpt_bytes as f64 / 1024.0,
                overhead * 100.0
            ));
        }

        // Crash drill: checkpoint at RECOVERY_CADENCE until ~60% of the
        // run, "crash", then race recovery against a from-scratch rerun.
        let crash_at = total_cycles * 3 / 5;
        let mut machine = fresh(kernel);
        let mut run = SlicedRun::new(&machine);
        let mut last = (machine.snapshot_bytes(), 0u64);
        while machine.cycle() < crash_at {
            if machine
                .run_for(&mut run, RECOVERY_CADENCE)
                .unwrap()
                .is_some()
            {
                break;
            }
            if machine.cycle() < crash_at {
                last = (machine.snapshot_bytes(), machine.cycle());
            }
        }
        let crash_cycle = machine.cycle();
        drop(machine);

        let mut recover_sec = f64::INFINITY;
        for _ in 0..BEST_OF {
            let t0 = Instant::now();
            let snap = glsc_sim::MachineSnapshot::from_bytes(&last.0).expect("checkpoint decodes");
            let mut machine = Machine::from_snapshot(&snap);
            let mut run = SlicedRun::new(&machine);
            let report = loop {
                if let Some(r) = machine.run_for(&mut run, u64::MAX / 4).unwrap() {
                    break r;
                }
            };
            recover_sec = recover_sec.min(t0.elapsed().as_secs_f64());
            assert_eq!(report.cycles, total_cycles, "recovery changed timing");
        }
        let mut naive_restart_sec = f64::INFINITY;
        for _ in 0..BEST_OF {
            let mut machine = fresh(kernel);
            let t0 = Instant::now();
            machine.run().unwrap();
            naive_restart_sec = naive_restart_sec.min(t0.elapsed().as_secs_f64());
        }
        out.line(format!(
            "{:<6} crash @{} (ckpt @{}, {} cycles lost): recover {:.4} s vs restart {:.4} s ({:.2}x)",
            kernel,
            crash_cycle,
            last.1,
            crash_cycle - last.1,
            recover_sec,
            naive_restart_sec,
            naive_restart_sec / recover_sec
        ));

        rows.push(RecoveryRow {
            kernel,
            total_cycles,
            base_sec,
            cadences,
            crash_cycle,
            checkpoint_cycle: last.1,
            recover_sec,
            naive_restart_sec,
        });
    }
    out.blank();
    out.line(
        "note: recover beats restart only when the work saved (cycles up to the checkpoint) \
         outruns one snapshot decode; sub-millisecond tiny jobs sit below that break-even, \
         which is why the service defaults to a 20k-cycle cadence.",
    );
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// One cadence point of the fleet-path checkpoint-overhead sweep.
struct FleetCkptRow {
    cadence: u64,
    jobs: usize,
    checkpoints: u64,
    /// Total bytes written across all checkpoints of one sweep.
    ckpt_bytes: u64,
    /// Supervised fleet with no-op pause hooks.
    base_sec: f64,
    /// Supervised fleet writing a durable snapshot at every pause.
    ckpt_sec: f64,
    overhead: f64,
}

/// Measures checkpoint overhead on the *fleet* path: the same durable
/// tmp+rename snapshot writes as the solo cadence sweep above, but taken
/// from [`Fleet::run_each_supervised`] pause hooks at slice boundaries —
/// the production path of the protocol-facing job service (DESIGN.md
/// §15). The no-checkpoint baseline runs the identical supervised loop
/// with hooks that do nothing, so the delta is pure checkpoint cost, and
/// every job's cycle count must match a one-machine-per-job solo run.
fn measure_fleet_recovery(out: &mut FigureOutput) -> Vec<FleetCkptRow> {
    use glsc_sim::{Fleet, FleetJob, PauseCtl};
    let dir = std::env::temp_dir().join(format!("glsc-simperf-fleet-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fleet checkpoint scratch dir");
    let ds = datasets()[0];
    // Two machine shapes → two config-affine fleet groups, so the sweep
    // exercises pooling and the multi-member pause fan-out, not just one
    // machine stepped in a loop.
    let shapes = [(1usize, 2usize), (4, 4)];
    let params: Vec<(&str, (usize, usize))> = KERNEL_NAMES
        .iter()
        .flat_map(|&k| shapes.iter().map(move |&s| (k, s)))
        .collect();
    let make_jobs = || -> Vec<FleetJob> {
        params
            .iter()
            .map(|&(kernel, (cores, tpc))| {
                let cfg = config(cores, tpc, 4);
                let w = build_named(kernel, ds, Variant::Glsc, &cfg).expect("known kernel");
                FleetJob::new(cfg, w.program.clone()).with_base(w.image.publish())
            })
            .collect()
    };
    let solo: Vec<u64> = params
        .iter()
        .map(|&(kernel, (cores, tpc))| {
            let cfg = config(cores, tpc, 4);
            let w = build_named(kernel, ds, Variant::Glsc, &cfg).expect("known kernel");
            run_workload(&w, &cfg)
                .unwrap_or_else(|e| panic!("{kernel}: {e}"))
                .report
                .cycles
        })
        .collect();

    out.blank();
    out.line(format!(
        "fleet path ({} jobs, shapes 1x2+4x4, width 4): durable checkpoint at every pause",
        params.len()
    ));
    out.line(format!(
        "{:>8} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "cadence", "ckpts", "ckpt KiB", "base s", "ckpt s", "overhead"
    ));
    let mut rows = Vec::new();
    for cadence in [5_000u64, 20_000] {
        let fleet = || Fleet::new().with_quantum(cadence).with_width(4);
        let mut base_sec = f64::INFINITY;
        let mut cycles = vec![0u64; params.len()];
        for _ in 0..BEST_OF {
            let jobs = make_jobs();
            let t0 = Instant::now();
            fleet().run_each_supervised(
                jobs,
                |_, _| PauseCtl::Continue,
                |i, _, r| {
                    cycles[i] = r.unwrap_or_else(|e| panic!("fleet job {i}: {e}")).cycles;
                },
            );
            base_sec = base_sec.min(t0.elapsed().as_secs_f64());
        }
        assert_eq!(cycles, solo, "supervised fleet path changed timing");

        let mut ckpt_sec = f64::INFINITY;
        let mut checkpoints = 0u64;
        let mut ckpt_bytes = 0u64;
        for _ in 0..BEST_OF {
            let jobs = make_jobs();
            let (mut n_ck, mut n_bytes) = (0u64, 0u64);
            let mut cycles = vec![0u64; params.len()];
            let mut buf = Vec::new();
            let t0 = Instant::now();
            fleet().run_each_supervised(
                jobs,
                |i, machine| {
                    machine.write_snapshot(&mut buf);
                    let path = dir.join(format!("job{i}.ckpt"));
                    let tmp = dir.join(format!("job{i}.ckpt.tmp"));
                    std::fs::write(&tmp, &buf)
                        .and_then(|()| std::fs::rename(&tmp, &path))
                        .expect("write fleet checkpoint");
                    n_ck += 1;
                    n_bytes += buf.len() as u64;
                    PauseCtl::Continue
                },
                |i, _, r| {
                    cycles[i] = r.unwrap_or_else(|e| panic!("fleet job {i}: {e}")).cycles;
                },
            );
            ckpt_sec = ckpt_sec.min(t0.elapsed().as_secs_f64());
            checkpoints = n_ck;
            ckpt_bytes = n_bytes;
            assert_eq!(cycles, solo, "checkpointing fleet path changed timing");
        }
        let overhead = ckpt_sec / base_sec - 1.0;
        out.line(format!(
            "{:>8} {:>6} {:>9.1} {:>9.4} {:>9.4} {:>8.0}%",
            cadence,
            checkpoints,
            ckpt_bytes as f64 / 1024.0,
            base_sec,
            ckpt_sec,
            overhead * 100.0
        ));
        rows.push(FleetCkptRow {
            cadence,
            jobs: params.len(),
            checkpoints,
            ckpt_bytes,
            base_sec,
            ckpt_sec,
            overhead,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// Emits `results/BENCH_recovery.json` — the machine-readable record of
/// checkpoint overhead vs cadence and time-to-recover vs a naive restart
/// on both the solo and the fleet (service) paths (same directory and
/// tiny-suffix rules as [`write_fleet_json`]).
fn write_recovery_json(rows: &[RecoveryRow], fleet: &[FleetCkptRow]) {
    let kernels: Vec<String> = rows
        .iter()
        .map(|r| {
            let cadences: Vec<String> = r
                .cadences
                .iter()
                .map(|&(cadence, ckpts, bytes, wall, overhead)| {
                    format!(
                        "      {{ \"cadence_cycles\": {cadence}, \"checkpoints\": {ckpts}, \"checkpoint_bytes\": {bytes}, \"host_sec\": {wall:.6}, \"overhead_frac\": {overhead:.4} }}"
                    )
                })
                .collect();
            format!(
                "  \"{}\": {{\n    \"sim_cycles\": {},\n    \"baseline_sec\": {:.6},\n    \"cadences\": [\n{}\n    ],\n    \"recovery\": {{ \"cadence_cycles\": {}, \"crash_cycle\": {}, \"checkpoint_cycle\": {}, \"lost_cycles\": {}, \"recover_sec\": {:.6}, \"naive_restart_sec\": {:.6}, \"recover_speedup\": {:.3} }}\n  }}",
                r.kernel,
                r.total_cycles,
                r.base_sec,
                cadences.join(",\n"),
                RECOVERY_CADENCE,
                r.crash_cycle,
                r.checkpoint_cycle,
                r.crash_cycle - r.checkpoint_cycle,
                r.recover_sec,
                r.naive_restart_sec,
                r.naive_restart_sec / r.recover_sec
            )
        })
        .collect();
    let fleet_cadences: Vec<String> = fleet
        .iter()
        .map(|r| {
            format!(
                "      {{ \"cadence_cycles\": {}, \"checkpoints\": {}, \"checkpoint_bytes_total\": {}, \"base_sec\": {:.6}, \"checkpoint_sec\": {:.6}, \"overhead_frac\": {:.4} }}",
                r.cadence, r.checkpoints, r.ckpt_bytes, r.base_sec, r.ckpt_sec, r.overhead
            )
        })
        .collect();
    let fleet_json = format!(
        "  \"fleet_path\": {{\n    \"jobs\": {},\n    \"width\": 4,\n    \"cadences\": [\n{}\n    ]\n  }}",
        fleet.first().map_or(0, |r| r.jobs),
        fleet_cadences.join(",\n")
    );
    let tiny = std::env::var("GLSC_DATASETS").is_ok_and(|v| v == "tiny");
    let json = format!(
        "{{\n  \"bench\": \"simperf part 4\",\n  \"datasets\": \"{}\",\n{},\n{}\n}}\n",
        if tiny { "tiny" } else { "full" },
        kernels.join(",\n"),
        fleet_json
    );
    let dir = std::env::var("GLSC_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    let suffix = if tiny { "-tiny" } else { "" };
    let path = dir.join(format!("BENCH_recovery{suffix}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &json)?;
        std::fs::rename(&tmp, &path)
    };
    match write() {
        Ok(()) => println!("recovery record: {}", path.display()),
        Err(e) => eprintln!("simperf: failed to write {}: {e}", path.display()),
    }
}

/// Emits the machine-readable fleet throughput record next to the figure
/// text (same directory and tiny-suffix rules as [`FigureOutput`]).
fn write_fleet_json(screening: &SweepResult, suite: &SweepResult, threads: usize) {
    let side = |s: &SweepSide| {
        format!(
            "{{ \"jobs\": {}, \"host_sec\": {:.6}, \"jobs_per_sec\": {:.3}, \"sim_cycles\": {}, \"sim_mcycles_per_host_sec\": {:.3} }}",
            s.jobs,
            s.host_sec,
            s.jobs_per_sec(),
            s.sim_cycles,
            s.mcyc_per_sec()
        )
    };
    let sweep = |r: &SweepResult| {
        format!(
            "  \"{}\": {{\n    \"solo_threads\": {},\n    \"fleet_threads\": {},\n    \"solo\": {},\n    \"fleet\": {},\n    \"fleet_vs_solo\": {:.3}\n  }}",
            r.label,
            r.solo_threads,
            r.fleet_threads,
            side(&r.solo),
            side(&r.fleet),
            r.ratio()
        )
    };
    let tiny = std::env::var("GLSC_DATASETS").is_ok_and(|v| v == "tiny");
    let json = format!(
        "{{\n  \"bench\": \"simperf part 3\",\n  \"datasets\": \"{}\",\n  \"host_threads\": {threads},\n{},\n{}\n}}\n",
        if tiny { "tiny" } else { "full" },
        sweep(screening),
        sweep(suite)
    );
    let dir = std::env::var("GLSC_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    let suffix = if tiny { "-tiny" } else { "" };
    let path = dir.join(format!("BENCH_fleet{suffix}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &json)?;
        std::fs::rename(&tmp, &path)
    };
    match write() {
        Ok(()) => println!("fleet throughput record: {}", path.display()),
        Err(e) => eprintln!("simperf: failed to write {}: {e}", path.display()),
    }
}
