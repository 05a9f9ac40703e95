//! The fleet engine: many machine runs in one process with amortized
//! per-job cost (DESIGN.md §13).
//!
//! A sweep over kernels × configurations is the unit of work this
//! reproduction actually executes (fig5–fig8, table4, the contention
//! studies), and the solo path pays a fixed tax per job: building a
//! [`Machine`] allocates megabytes of cache-tag sets, filling the dataset
//! writes every page of the image, and dropping the machine walks it all
//! again. A [`Fleet`] amortizes all three:
//!
//! * **machine pooling** — finished machines are [`Machine::reset`] (an
//!   allocation-preserving return to the pristine state) and reused for
//!   the next job with the same configuration;
//! * **shared datasets** — jobs mount their initial memory image as a
//!   copy-on-write [`BackingBase`] instead of writing it word by word
//!   ([`glsc_mem::Backing::set_base`]);
//! * **batched stepping** — up to [`width`](Fleet::with_width) live
//!   machines advance round-robin, one
//!   [quantum](Fleet::with_quantum) of cycles per pass, each through
//!   [`Machine::run_for`]: the same slice loop and cycle function a solo
//!   [`Machine::run`] uses, with a [`SlicedRun`] per member carrying
//!   its abort detectors across quanta.
//!
//! There is one member loop, [`Fleet::run_each_supervised`];
//! [`Fleet::run_each`] is that loop with a pause hook that always
//! continues. Every completed job yields a [`RunReport`]
//! **bit-identical** to the same job run solo through [`Machine::run`] —
//! enforced by the fleet differential oracle in `glsc-bench` across every
//! kernel, Fig. 6 shape, the Ideal and Ring topologies, and a chaos plan.

use crate::config::MachineConfig;
use crate::machine::{Machine, MachineSnapshot, SimError, SlicedRun};
use crate::report::RunReport;
use glsc_isa::Program;
use glsc_mem::{BackingBase, FaultPlan};
use std::collections::VecDeque;
use std::sync::Arc;

/// One job for a [`Fleet`]: a configuration, a program, and optionally a
/// shared dataset base and a fault plan.
#[derive(Clone, Debug)]
pub struct FleetJob {
    /// Machine configuration to run under.
    pub cfg: MachineConfig,
    /// The SPMD program.
    pub program: Program,
    /// Initial memory image, mounted copy-on-write. `None` runs with
    /// all-zero memory.
    pub base: Option<Arc<BackingBase>>,
    /// Fault-injection plan to install before the run (DESIGN.md §9).
    pub fault_plan: Option<FaultPlan>,
    /// Resume point: mount this snapshot instead of a fresh program +
    /// image. A snapshot is self-contained (the CoW base is serialized by
    /// value), so `program`, `base` and `fault_plan` are ignored when it
    /// is set. `cfg` decides the job's scheduling group; a snapshot
    /// captured under another configuration fails the job with
    /// [`SimError::SnapshotMismatch`].
    pub snapshot: Option<Arc<MachineSnapshot>>,
}

impl FleetJob {
    /// A plain job: configuration + program, zero-filled memory, no chaos.
    pub fn new(cfg: MachineConfig, program: Program) -> Self {
        Self {
            cfg,
            program,
            base: None,
            fault_plan: None,
            snapshot: None,
        }
    }

    /// Mounts `base` as the job's initial memory image.
    pub fn with_base(mut self, base: Arc<BackingBase>) -> Self {
        self.base = Some(base);
        self
    }

    /// Installs `plan` before the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Resumes the job from `snap` instead of starting it fresh (the
    /// crash-recovery path: a checkpointed job re-enters the fleet
    /// mid-flight and must finish bit-identically to an uninterrupted
    /// run, which [`Machine::restore`] guarantees).
    pub fn with_snapshot(mut self, snap: Arc<MachineSnapshot>) -> Self {
        self.snapshot = Some(snap);
        self
    }
}

/// What a [`Fleet::run_each_supervised`] pause hook tells the fleet to do
/// with the member that just finished a quantum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PauseCtl {
    /// Keep running the job.
    Continue,
    /// Abandon this job (deadline, policy): the member is retired without
    /// a completion callback — the supervisor already knows why.
    FailJob,
    /// Stop the whole fleet (drain). Before returning, the hook is called
    /// once more for every *other* still-active member so the supervisor
    /// can checkpoint each of them; unstarted jobs are never mounted.
    Halt,
}

/// Why a supervised fleet job ended without a report.
#[derive(Debug)]
pub enum FleetFailure {
    /// The simulation aborted with a typed error (livelock, starvation,
    /// cycle budget, invariant violation).
    Sim(SimError),
    /// The stepping loop panicked. The member's machine is discarded, not
    /// pooled — its state cannot be trusted — and the payload message is
    /// preserved for the supervisor's failure ledger.
    Panicked(String),
}

impl std::fmt::Display for FleetFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetFailure::Sim(e) => write!(f, "simulation failed: {e}"),
            FleetFailure::Panicked(msg) => write!(f, "{msg}"),
        }
    }
}

/// A live fleet member: which job it is running, its detector state, and
/// the rest of its configuration group's job queue.
struct Member {
    idx: usize,
    machine: Machine,
    run: SlicedRun,
    queue: VecDeque<usize>,
}

/// Mounts the next job of `queue` onto `machine` (which is fresh or
/// reset): either a fresh program + CoW base + fault plan, or — for a
/// checkpointed job — the snapshot it is resuming from. The detector
/// state is created *after* mounting, as [`SlicedRun::new`] requires.
///
/// A snapshot captured under another configuration than the group's
/// cannot be restored: that job ends through `on_done` with
/// [`SimError::SnapshotMismatch`] and the group's next job is mounted on
/// the same machine. When the queue runs dry the machine is parked in
/// `pool` and there is no member.
fn mount<F>(
    mut machine: Machine,
    mut queue: VecDeque<usize>,
    jobs: &mut [Option<FleetJob>],
    pool: &mut Vec<Machine>,
    on_done: &mut F,
) -> Option<Member>
where
    F: FnMut(usize, &mut Machine, Result<RunReport, FleetFailure>),
{
    while let Some(idx) = queue.pop_front() {
        let FleetJob {
            program,
            base,
            fault_plan,
            snapshot,
            ..
        } = jobs[idx].take().expect("each job admitted once");
        match snapshot {
            Some(snap) => {
                if let Err(e) = machine.restore(&snap) {
                    on_done(idx, &mut machine, Err(FleetFailure::Sim(e)));
                    machine.reset(); // the callback may have written to it
                    continue;
                }
            }
            None => {
                if let Some(base) = base {
                    machine.mem_mut().backing_mut().set_base(base);
                }
                machine.load_program(program);
                if let Some(plan) = fault_plan {
                    machine.mem_mut().install_fault_plan(plan);
                }
            }
        }
        let run = SlicedRun::new(&machine);
        return Some(Member {
            idx,
            machine,
            run,
            queue,
        });
    }
    pool.push(machine);
    None
}

/// Renders a panic payload the way the supervisor ledgers expect.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Groups job indices by machine configuration (order-preserving).
fn group_by_config(jobs: &[FleetJob]) -> VecDeque<(MachineConfig, VecDeque<usize>)> {
    let mut groups: Vec<(MachineConfig, VecDeque<usize>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match groups.iter_mut().find(|(cfg, _)| *cfg == job.cfg) {
            Some((_, q)) => q.push_back(i),
            None => groups.push((job.cfg.clone(), std::iter::once(i).collect())),
        }
    }
    groups.into()
}

/// Batched multi-machine runner. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Fleet {
    quantum: u64,
    width: usize,
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new()
    }
}

impl Fleet {
    /// A fleet with the default batch width (4 machines per pass) and
    /// quantum (8192 cycles per machine per pass). Neither knob affects
    /// results, only host-side locality.
    pub fn new() -> Self {
        Self {
            quantum: 8192,
            width: 4,
        }
    }

    /// Sets the per-pass cycle quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum = quantum;
        self
    }

    /// Sets how many machines are live at once.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_width(mut self, width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        self.width = width;
        self
    }

    /// Runs every job, invoking `on_done(index, machine, result)` as each
    /// finishes (not in index order). The machine handed to the callback
    /// holds the job's final state — backing store for validation, chaos
    /// stats, and so on — and is reset and pooled for reuse after the
    /// callback returns.
    ///
    /// Scheduling is **configuration-affine**: jobs are grouped by
    /// machine configuration and each of the `width` slots drains one
    /// group at a time, so a slot's machine is reset and reused across
    /// every job of its shape instead of bouncing through the pool while
    /// other shapes occupy the window. Building a machine costs
    /// milliseconds (megabytes of cache-tag capacity); resetting one
    /// costs microseconds — without affinity a mixed sweep rebuilds
    /// machines at every slot refill and the fleet loses exactly the
    /// amortization it exists to provide. Within a group, jobs run in
    /// submission order.
    ///
    /// This is [`run_each_supervised`](Fleet::run_each_supervised) with
    /// a pause hook that always continues.
    ///
    /// # Panics
    ///
    /// Panics if a job's configuration is invalid (as [`Machine::new`]
    /// would). A panic inside the stepping loop propagates to the caller,
    /// its message preserved.
    pub fn run_each<F>(&self, jobs: Vec<FleetJob>, mut on_done: F)
    where
        F: FnMut(usize, &mut Machine, Result<RunReport, SimError>),
    {
        self.run_each_supervised(
            jobs,
            |_, _| PauseCtl::Continue,
            |idx, machine, result| match result {
                Ok(report) => on_done(idx, machine, Ok(report)),
                Err(FleetFailure::Sim(e)) => on_done(idx, machine, Err(e)),
                Err(FleetFailure::Panicked(msg)) => std::panic::resume_unwind(Box::new(msg)),
            },
        );
    }

    /// The supervised variant of [`run_each`](Fleet::run_each): same
    /// config-affine batched stepping, plus the hooks a crash-durable
    /// job service needs (DESIGN.md §15).
    ///
    /// * `on_pause(index, machine)` runs at every quantum boundary of
    ///   every live member — the supervisor's chance to write a
    ///   cycle-cadenced checkpoint, poll for a drain signal, or enforce a
    ///   deadline. Returning [`PauseCtl::FailJob`] retires the member
    ///   with no completion callback; [`PauseCtl::Halt`] stops the fleet
    ///   after offering every *other* live member one final `on_pause`
    ///   (so a drain checkpoints all in-flight slots, not just the one
    ///   that observed the signal).
    /// * `on_done(index, machine, result)` fires as each job finishes.
    ///   A panic inside the stepping loop is caught and reported as
    ///   [`FleetFailure::Panicked`]; the panicking machine is discarded
    ///   instead of pooled, and the fleet keeps going — one hostile job
    ///   cannot take down the batch.
    /// * Jobs carrying a [snapshot](FleetJob::with_snapshot) resume from
    ///   it bit-identically instead of starting fresh; one whose snapshot
    ///   holds another configuration fails with
    ///   [`SimError::SnapshotMismatch`].
    ///
    /// Returns `true` when every job ran to an outcome, `false` when a
    /// hook halted the fleet (jobs not yet mounted never start).
    pub fn run_each_supervised<P, F>(
        &self,
        jobs: Vec<FleetJob>,
        mut on_pause: P,
        mut on_done: F,
    ) -> bool
    where
        P: FnMut(usize, &mut Machine) -> PauseCtl,
        F: FnMut(usize, &mut Machine, Result<RunReport, FleetFailure>),
    {
        let mut groups = group_by_config(&jobs);
        let mut jobs: Vec<Option<FleetJob>> = jobs.into_iter().map(Some).collect();
        let mut pool: Vec<Machine> = Vec::new();
        let mut active: Vec<Member> = Vec::new();

        loop {
            // Refill the batch window: one group per free slot.
            while active.len() < self.width {
                let Some((cfg, queue)) = groups.pop_front() else {
                    break;
                };
                let machine = match pool.iter().position(|m| *m.cfg() == cfg) {
                    Some(i) => pool.swap_remove(i),
                    None => Machine::new(cfg),
                };
                if let Some(member) = mount(machine, queue, &mut jobs, &mut pool, &mut on_done) {
                    active.push(member);
                }
            }
            if active.is_empty() {
                return true;
            }
            // One pass: a quantum for each live member. A finished member
            // reports, resets its machine, and mounts its group's next
            // job in place; an exhausted group parks the machine in the
            // pool and frees the slot for the next group.
            let mut i = 0;
            while i < active.len() {
                let member = &mut active[i];
                let sliced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    member.machine.run_for(&mut member.run, self.quantum)
                }));
                match sliced {
                    Err(payload) => {
                        on_done(
                            member.idx,
                            &mut member.machine,
                            Err(FleetFailure::Panicked(panic_message(payload))),
                        );
                        // Mid-panic machine state cannot be trusted:
                        // replace it with a fresh build before retiring.
                        member.machine = Machine::new(member.machine.cfg().clone());
                        Self::retire(&mut active, i, &mut pool, &mut jobs, &mut on_done);
                    }
                    Ok(Ok(None)) => match on_pause(member.idx, &mut member.machine) {
                        PauseCtl::Continue => i += 1,
                        PauseCtl::FailJob => {
                            Self::retire(&mut active, i, &mut pool, &mut jobs, &mut on_done);
                        }
                        PauseCtl::Halt => {
                            let halted = member.idx;
                            for other in active.iter_mut() {
                                if other.idx != halted {
                                    let _ = on_pause(other.idx, &mut other.machine);
                                }
                            }
                            return false;
                        }
                    },
                    Ok(Err(e)) => {
                        on_done(member.idx, &mut member.machine, Err(FleetFailure::Sim(e)));
                        Self::retire(&mut active, i, &mut pool, &mut jobs, &mut on_done);
                    }
                    Ok(Ok(Some(report))) => {
                        on_done(member.idx, &mut member.machine, Ok(report));
                        Self::retire(&mut active, i, &mut pool, &mut jobs, &mut on_done);
                    }
                }
            }
        }
    }

    /// Retires `active[i]`'s finished job: resets the machine, mounts the
    /// group's next job in place, or parks the machine and frees the
    /// slot.
    fn retire<F>(
        active: &mut Vec<Member>,
        i: usize,
        pool: &mut Vec<Machine>,
        jobs: &mut [Option<FleetJob>],
        on_done: &mut F,
    ) where
        F: FnMut(usize, &mut Machine, Result<RunReport, FleetFailure>),
    {
        let Member {
            mut machine, queue, ..
        } = active.swap_remove(i);
        machine.reset();
        if let Some(member) = mount(machine, queue, jobs, pool, on_done) {
            active.push(member);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_isa::{ProgramBuilder, Reg};

    /// A countdown loop long enough to pause several times under a small
    /// quantum, ending with a store that proves it ran to completion.
    fn countdown(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let (r_cnt, r_addr) = (Reg::new(2), Reg::new(3));
        b.li(r_cnt, iters);
        b.li(r_addr, 0x2000);
        let top = b.label();
        b.bind(top).expect("fresh label");
        b.addi(r_cnt, r_cnt, -1);
        b.bne(r_cnt, 0, top);
        b.st(r_cnt, r_addr, 0);
        b.halt();
        b.build().expect("countdown assembles")
    }

    fn solo_report(cfg: &MachineConfig, program: &Program) -> RunReport {
        let mut m = Machine::new(cfg.clone());
        m.load_program(program.clone());
        m.run().expect("solo run completes")
    }

    #[test]
    fn supervised_matches_solo_and_counts_pauses() {
        let cfg = MachineConfig::paper(1, 2, 4);
        let program = countdown(200);
        let solo = solo_report(&cfg, &program);

        let mut pauses = 0usize;
        let mut got = None;
        let done = Fleet::new().with_quantum(64).run_each_supervised(
            vec![FleetJob::new(cfg, program)],
            |_, _| {
                pauses += 1;
                PauseCtl::Continue
            },
            |idx, _, result| {
                assert_eq!(idx, 0);
                got = Some(result.expect("job completes"));
            },
        );
        assert!(done);
        assert!(
            pauses > 1,
            "quantum 64 must pause a {}-cycle run",
            solo.cycles
        );
        assert_eq!(got.expect("job reported"), solo);
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let cfg = MachineConfig::paper(2, 2, 4);
        let program = countdown(300);
        let solo = solo_report(&cfg, &program);

        // Run supervised, capturing a snapshot at the second pause and
        // halting right after — the drain path.
        let mut snap: Option<Arc<MachineSnapshot>> = None;
        let mut pauses = 0usize;
        let done = Fleet::new().with_quantum(64).run_each_supervised(
            vec![FleetJob::new(cfg.clone(), program.clone())],
            |_, machine| {
                pauses += 1;
                if pauses == 2 {
                    snap = Some(Arc::new(machine.snapshot()));
                    PauseCtl::Halt
                } else {
                    PauseCtl::Continue
                }
            },
            |_, _, _| panic!("job must not finish before the halt"),
        );
        assert!(!done, "halted fleet must report an incomplete run");
        let snap = snap.expect("snapshot captured at second pause");
        assert!(snap.cycle() > 0);

        // Resume from the snapshot in a fresh fleet: the final report
        // must be bit-identical to the uninterrupted solo run.
        let mut got = None;
        let done = Fleet::new().with_quantum(64).run_each_supervised(
            vec![FleetJob::new(cfg, program).with_snapshot(snap)],
            |_, _| PauseCtl::Continue,
            |_, _, result| got = Some(result.expect("resumed job completes")),
        );
        assert!(done);
        assert_eq!(got.expect("resumed job reported"), solo);
    }

    #[test]
    fn snapshot_of_another_config_fails_only_its_job() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let mut other = Machine::new(MachineConfig::paper(2, 2, 4));
        other.load_program(countdown(50));
        let foreign = Arc::new(other.snapshot());
        let jobs = vec![
            FleetJob::new(cfg.clone(), countdown(50)).with_snapshot(foreign),
            FleetJob::new(cfg.clone(), countdown(100)),
        ];
        let mut results = Vec::new();
        Fleet::new().run_each(jobs, |idx, _, result| results.push((idx, result)));
        assert_eq!(results.len(), 2);
        assert!(
            matches!(results[0], (0, Err(SimError::SnapshotMismatch { .. }))),
            "{:?}",
            results[0]
        );
        // The group keeps its own machine: the next job runs on `cfg`.
        assert_eq!(results[1].0, 1);
        assert_eq!(
            results[1].1.as_ref().expect("second job completes"),
            &solo_report(&cfg, &countdown(100))
        );
    }

    #[test]
    fn fail_job_retires_without_completion_and_batch_continues() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let jobs = vec![
            FleetJob::new(cfg.clone(), countdown(5_000)),
            FleetJob::new(cfg.clone(), countdown(100)),
        ];
        let solo = solo_report(&cfg, &countdown(100));
        let mut finished = Vec::new();
        let done = Fleet::new().with_quantum(32).run_each_supervised(
            jobs,
            |idx, _| {
                // Abandon the long job at its first pause (a deadline, in
                // the service's terms); the short one runs out.
                if idx == 0 {
                    PauseCtl::FailJob
                } else {
                    PauseCtl::Continue
                }
            },
            |idx, _, result| finished.push((idx, result.expect("short job completes"))),
        );
        assert!(done);
        assert_eq!(finished.len(), 1, "failed job must not reach on_done");
        assert_eq!(finished[0].0, 1);
        assert_eq!(finished[0].1, solo);
    }
}
