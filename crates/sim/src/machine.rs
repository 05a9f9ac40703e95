//! The whole-machine cycle loop: cores, shared memory system, barriers.

use crate::config::{ConfigError, MachineConfig};
use crate::cpu::Core;
use crate::report::{RunReport, StallTotals};
use crate::thread::ThreadStatus;
use glsc_core::MemCompletion;
use glsc_isa::{Program, Reg};
use glsc_mem::MemorySystem;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No program was loaded before [`Machine::run`].
    NoProgram,
    /// The configuration was rejected (from [`Machine::try_new`]).
    InvalidConfig(ConfigError),
    /// The cycle budget was exhausted (a non-terminating simulated
    /// program — note a GLSC retry storm lands here, not in
    /// [`SimError::Livelock`], because retries keep issuing); carries the
    /// per-thread program counters and stall totals for diagnosis.
    MaxCyclesExceeded {
        /// Cycle at which the run aborted.
        cycle: u64,
        /// `(global thread id, pc)` of every non-halted thread.
        stuck: Vec<(usize, usize)>,
        /// Machine-wide stall-bucket totals at abort.
        stalls: StallTotals,
    },
    /// The forward-progress watchdog fired: no thread in the machine
    /// issued an instruction for a whole watchdog window (see
    /// [`MachineConfig::watchdog_window`]). Carries a diagnostic dump.
    Livelock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// The configured window that elapsed without progress.
        window: u64,
        /// `(global thread id, pc)` of every non-halted thread.
        stuck: Vec<(usize, usize)>,
        /// Machine-wide stall-bucket totals at abort.
        stalls: StallTotals,
        /// Every live reservation as `(core, line, thread mask)`.
        reservations: Vec<(usize, u64, u8)>,
    },
    /// The starvation detector fired: a thread's run of *consecutive*
    /// store-conditional failures reached the configured threshold (see
    /// [`MachineConfig::starvation_threshold`]). This is the condition the
    /// livelock watchdog is structurally blind to — a retry storm keeps
    /// issuing instructions — and the reason the arbitration policies of
    /// DESIGN.md §12 exist. Carries the full per-thread failure census;
    /// the rendered message includes Jain's fairness index over it.
    Starvation {
        /// Cycle at which the detector fired.
        cycle: u64,
        /// Global id of the starved thread (the longest current streak;
        /// ties break toward the lowest id).
        gid: usize,
        /// The starved thread's consecutive-failure streak.
        streak: u64,
        /// Total SC failures per global thread id (Jain's index over
        /// these is rendered in the Display message).
        failures: Vec<u64>,
        /// Every live reservation as `(core, line, thread mask)` — the
        /// competitors the starved thread keeps losing to.
        reservations: Vec<(usize, u64, u8)>,
    },
    /// A periodic coherence check (see
    /// [`MachineConfig::invariant_check_period`]) found the memory system
    /// in an inconsistent state.
    InvariantViolation {
        /// Cycle of the failing check.
        cycle: u64,
        /// The violated invariant.
        violation: glsc_mem::InvariantViolation,
    },
    /// The vector-clock atomicity oracle (DESIGN.md §17) observed a
    /// foreign write landing inside a GLSC atomic region that nonetheless
    /// committed. Only produced when an oracle is installed on the memory
    /// system ([`glsc_mem::MemorySystem::install_oracle`]); the default
    /// machine never raises it.
    AtomicityViolation {
        /// Cycle at which the violating commit was observed.
        cycle: u64,
        /// The oracle's account of the broken region.
        violation: glsc_mem::AtomicityViolation,
    },
    /// [`Machine::restore`] was called with a snapshot captured under a
    /// different machine configuration; restoring it would silently
    /// change the machine's shape or timing model mid-run. Carries both
    /// configurations for diagnosis.
    SnapshotMismatch {
        /// The restoring machine's configuration.
        machine: Box<MachineConfig>,
        /// The configuration the snapshot was captured under.
        snapshot: Box<MachineConfig>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoProgram => write!(f, "no program loaded"),
            SimError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            SimError::MaxCyclesExceeded {
                cycle,
                stuck,
                stalls,
            } => {
                write!(
                    f,
                    "exceeded max cycles at {cycle}; non-halted threads at pcs {stuck:?}; \
                     stall totals: {stalls}"
                )
            }
            SimError::Livelock {
                cycle,
                window,
                stuck,
                stalls,
                reservations,
            } => {
                write!(
                    f,
                    "livelock: no instruction issued for {window} cycles (aborted at cycle \
                     {cycle}); non-halted threads at pcs {stuck:?}; stall totals: {stalls}; \
                     live reservations (core, line, mask): {reservations:x?}"
                )
            }
            SimError::Starvation {
                cycle,
                gid,
                streak,
                failures,
                reservations,
            } => {
                write!(
                    f,
                    "starvation: thread {gid} failed {streak} consecutive store-conditionals \
                     (aborted at cycle {cycle}); per-thread SC failures {failures:?} \
                     (Jain fairness {:.3}); live reservations (core, line, mask): \
                     {reservations:x?}",
                    crate::report::jain_fairness(failures)
                )
            }
            SimError::InvariantViolation { cycle, violation } => {
                write!(
                    f,
                    "coherence invariant violated at cycle {cycle}: {violation}"
                )
            }
            SimError::AtomicityViolation { cycle, violation } => {
                write!(f, "atomicity violated at cycle {cycle}: {violation}")
            }
            SimError::SnapshotMismatch { machine, snapshot } => {
                write!(
                    f,
                    "snapshot configuration mismatch: machine is {}x{} width {} but the \
                     snapshot was captured on {}x{} width {} (full configs differ)",
                    machine.cores,
                    machine.threads_per_core,
                    machine.simd_width,
                    snapshot.cores,
                    snapshot.threads_per_core,
                    snapshot.simd_width
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidConfig(e) => Some(e),
            SimError::InvariantViolation { violation, .. } => Some(violation),
            SimError::AtomicityViolation { violation, .. } => Some(violation),
            _ => None,
        }
    }
}

/// The simulated chip multiprocessor.
///
/// Construct with a [`MachineConfig`], initialize memory through
/// [`mem_mut`](Machine::mem_mut), load an SPMD [`Program`] (each hardware
/// thread gets its global id in `r0` and the thread count in `r1`), then
/// [`run`](Machine::run).
#[derive(Clone, Debug)]
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    cores: Vec<Core>,
    /// Shared so the per-cycle loop clones a refcount, not the program.
    program: Option<Arc<Program>>,
    cycle: u64,
    /// Reused completion buffer: the steady-state cycle loop performs no
    /// per-cycle heap allocation for completion delivery.
    comp_buf: Vec<MemCompletion>,
}

impl Machine {
    /// Builds a machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid. Use
    /// [`Machine::try_new`] for a non-panicking alternative.
    pub fn new(cfg: MachineConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(m) => m,
            Err(SimError::InvalidConfig(e)) => panic!("{e}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a machine, rejecting an invalid configuration as
    /// [`SimError::InvalidConfig`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] wrapping the first violated constraint
    /// (see [`MachineConfig::check`]).
    pub fn try_new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.check().map_err(SimError::InvalidConfig)?;
        let mem = MemorySystem::try_new(cfg.mem.clone(), cfg.cores, cfg.threads_per_core)
            .map_err(|e| SimError::InvalidConfig(ConfigError::Mem(e)))?;
        let cores = (0..cfg.cores).map(|id| Core::new(id, &cfg)).collect();
        Ok(Self {
            cfg,
            mem,
            cores,
            program: None,
            cycle: 0,
            comp_buf: Vec::new(),
        })
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Returns the machine to its just-constructed state — cold memory
    /// system, fresh cores, no program, cycle 0 — while keeping the large
    /// cache-tag and page-table allocations for reuse. The fleet engine
    /// pools machines per configuration and calls this between jobs;
    /// the cores are rebuilt outright (they are small), so only the
    /// memory system needs a hand-written reset
    /// ([`MemorySystem::reset`]).
    pub fn reset(&mut self) {
        self.mem.reset();
        self.cores = (0..self.cfg.cores)
            .map(|id| Core::new(id, &self.cfg))
            .collect();
        self.program = None;
        self.cycle = 0;
        self.comp_buf.clear();
    }

    /// Read access to the memory system (backing store, caches, stats).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Write access to the memory system (for initializing workload data).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Loads an SPMD program, resetting every thread. `r0` is set to the
    /// global thread id and `r1` to the total thread count.
    pub fn load_program(&mut self, program: Program) {
        let total = self.cfg.total_threads() as u64;
        for (c, core) in self.cores.iter_mut().enumerate() {
            for (t, th) in core.threads.iter_mut().enumerate() {
                *th = crate::thread::Thread::new(self.cfg.simd_width);
                let gid = (c * self.cfg.threads_per_core + t) as u64;
                th.arch.set_reg(Reg::new(0), gid);
                th.arch.set_reg(Reg::new(1), total);
            }
            core.reset_status_counts();
        }
        self.program = Some(Arc::new(program));
        self.cycle = 0;
    }

    /// Sets register `r` in every thread (for passing arguments; call after
    /// [`load_program`](Machine::load_program)).
    pub fn set_reg_all(&mut self, r: Reg, value: u64) {
        for core in &mut self.cores {
            for th in &mut core.threads {
                th.arch.set_reg(r, value);
            }
        }
    }

    /// The architectural state of global thread `gid` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn thread_arch(&self, gid: usize) -> &crate::arch::ThreadArch {
        let c = gid / self.cfg.threads_per_core;
        let t = gid % self.cfg.threads_per_core;
        &self.cores[c].threads[t].arch
    }

    /// Advances one cycle; returns `true` when every thread has halted and
    /// every memory unit has drained.
    ///
    /// This is the machine's only cycle function: [`run`](Machine::run),
    /// [`run_naive`](Machine::run_naive), [`run_for`](Machine::run_for),
    /// [`step_masked`](Machine::step_masked) and the fleet all advance
    /// through it. It skips work that cannot change state:
    ///
    /// * an idle memory unit is not ticked (its tick is a state no-op; it
    ///   can produce no completions, so `apply_completions` on the empty
    ///   buffer is skipped with it);
    /// * a core whose threads have all halted skips the issue stage and
    ///   the statistics classification — both are no-ops for halted
    ///   threads, except the issue round-robin rotation, which is
    ///   unobservable once nothing can issue again.
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded.
    pub fn step(&mut self) -> bool {
        let Self {
            cfg,
            mem,
            cores,
            program,
            cycle,
            comp_buf,
        } = self;
        let program = program.as_deref().expect("program loaded");
        let now = *cycle;
        for core in cores.iter_mut() {
            if !core.memunit.is_idle() {
                core.memunit.tick_into(mem, now, comp_buf);
                core.apply_completions(comp_buf);
                debug_assert!(comp_buf.is_empty(), "completions fully drained");
            }
        }
        for core in cores.iter_mut() {
            if core.all_halted() {
                // issue_stage would have cleared this; the watchdog and
                // fast-forward probes must not see a stale value.
                core.issued_any = false;
            } else {
                core.issue_stage(program, cfg, now);
            }
        }
        self.release_barrier(now);
        for core in &mut self.cores {
            if !core.all_halted() {
                core.classify_cycle();
            }
        }
        self.cycle += 1;
        self.cores
            .iter()
            .all(|c| c.all_halted() && c.memunit.is_idle())
    }

    /// Advances one cycle with an externally-imposed per-core issue mask
    /// (bit `t` of `masks[c]` allows thread `t` of core `c` to issue this
    /// cycle). Threads masked out are accounted as losing the issue slot.
    /// The mask applies to this step only — the litmus schedule controller
    /// uses this to pin the machine to an explicit thread interleaving.
    /// With all-ones masks this is exactly [`step`](Machine::step).
    ///
    /// # Panics
    ///
    /// Panics if `masks` is shorter than the core count, or no program is
    /// loaded.
    pub fn step_masked(&mut self, masks: &[u32]) -> bool {
        assert!(masks.len() >= self.cores.len(), "mask per core required");
        for (core, &m) in self.cores.iter_mut().zip(masks) {
            core.issue_mask = m;
        }
        let done = self.step();
        for core in &mut self.cores {
            core.issue_mask = u32::MAX;
        }
        done
    }

    /// The first atomicity violation the installed oracle has recorded,
    /// if any (`None` when no oracle is installed — the default).
    pub fn oracle_violation(&self) -> Option<&glsc_mem::AtomicityViolation> {
        self.mem.oracle_violation()
    }

    /// Instructions retired so far by global thread `gid` (lets schedule
    /// controllers observe whether a thread made progress).
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn thread_instructions(&self, gid: usize) -> u64 {
        let c = gid / self.cfg.threads_per_core;
        let t = gid % self.cfg.threads_per_core;
        self.cores[c].threads[t].stats.instructions
    }

    /// Whether global thread `gid` has halted.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn thread_halted(&self, gid: usize) -> bool {
        let c = gid / self.cfg.threads_per_core;
        let t = gid % self.cfg.threads_per_core;
        self.cores[c].threads[t].is_halted()
    }

    /// Stores currently sitting in global thread `gid`'s write buffer
    /// (always 0 under sequential consistency).
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn buffered_stores(&self, gid: usize) -> usize {
        let c = gid / self.cfg.threads_per_core;
        let t = gid % self.cfg.threads_per_core;
        self.cores[c].memunit.lsu_buffered_stores(t as u8)
    }

    fn release_barrier(&mut self, now: u64) {
        let mut waiting = 0usize;
        let mut halted = 0usize;
        for core in &self.cores {
            waiting += core.at_barrier;
            halted += core.halted;
        }
        let live = self.cfg.total_threads() - halted;
        if live > 0 && waiting == live {
            for core in &mut self.cores {
                core.release_barrier_threads(now);
            }
        }
    }

    /// Jumps the clock forward over cycles in which nothing can happen:
    /// when every memory unit is drained, no completion can arrive and no
    /// thread status can change, so the next interesting cycle is the
    /// minimum over Running threads of their earliest possible issue
    /// cycle. The skipped cycles are bulk-attributed to the exact stall
    /// categories the single-stepped loop would have recorded (see
    /// [`Core::attribute_window`]), keeping [`RunReport`]s
    /// cycle-for-cycle identical to [`run_naive`](Machine::run_naive).
    /// `cap` bounds the jump target (exclusive of the watchdog deadline)
    /// so [`SimError::Livelock`] fires at the same cycle — with the same
    /// bulk-attributed stall stats — as under naive stepping.
    fn fast_forward(&mut self, cap: u64) {
        let now = self.cycle;
        // If any thread issued in the step that just completed, the
        // machine is making forward progress and the earliest-issue probe
        // below would almost always find `target <= now` — skip it so
        // compute-bound phases pay nothing for fast-forward support.
        // A busy memory unit generates/issues/drains every cycle; any
        // pending event likewise pins the machine to single-stepping.
        if self
            .cores
            .iter()
            .any(|c| c.issued_any || c.memunit.next_event_cycle(now).is_some())
        {
            return;
        }
        let program = Arc::clone(self.program.as_ref().expect("program loaded"));
        let mut target = u64::MAX;
        let mut any_running = false;
        for core in &mut self.cores {
            for t in 0..core.threads.len() {
                if core.threads[t].status == ThreadStatus::Running {
                    any_running = true;
                    target = target.min(core.earliest_issue(t, &program));
                }
            }
        }
        // Cap at the cycle budget (and the caller's watchdog deadline) so
        // MaxCyclesExceeded and Livelock fire at the same cycle (with the
        // same partial stats) as the naive loop.
        let target = target.min(self.cfg.max_cycles).min(cap);
        if !any_running || target <= now {
            return;
        }
        for core in &mut self.cores {
            core.attribute_window(&program, now, target);
        }
        self.cycle = target;
    }

    /// Runs until every thread halts, returning the aggregated report:
    /// one unbounded [`run_for`](Machine::run_for) slice. Uses
    /// event-driven fast-forwarding over dead cycles; the resulting report
    /// is cycle-for-cycle identical to [`run_naive`](Machine::run_naive).
    ///
    /// # Errors
    ///
    /// [`SimError::NoProgram`] when no program was loaded;
    /// [`SimError::MaxCyclesExceeded`] when the configured cycle budget is
    /// exhausted; the other variants when their detectors fire.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        let mut run = SlicedRun::new(self);
        Ok(self
            .run_for(&mut run, u64::MAX)?
            .expect("the cycle budget ends an unbounded slice"))
    }

    /// Runs the machine by single-stepping every cycle: the loop of
    /// [`run`](Machine::run) with fast-forwarding off. Kept as the
    /// reference implementation for differential testing and performance
    /// comparison against `run`.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Machine::run).
    pub fn run_naive(&mut self) -> Result<RunReport, SimError> {
        let mut run = SlicedRun {
            fast_forward: false,
            ..SlicedRun::new(self)
        };
        Ok(self
            .run_for(&mut run, u64::MAX)?
            .expect("the cycle budget ends an unbounded slice"))
    }

    /// Advances the machine by one slice of the stepping loop, returning
    /// `Some(report)` once every thread has halted and the memory units
    /// have drained, `None` while work remains.
    ///
    /// The slice stops at the first cycle at or past `start + budget`,
    /// where `start` is the cycle on entry. Fast-forward jumps are not cut
    /// at the slice end, so a paused slice may end past `start + budget`
    /// by up to one jump; it never ends before it. The concatenation of
    /// slices, whatever their budgets, is bit-identical to one
    /// uninterrupted [`Machine::run`] (itself one unbounded slice) — the
    /// property the snapshot-codec and kill-drill oracles pin down.
    ///
    /// `run` carries the abort detectors across slices, so the watchdog,
    /// starvation detector, periodic invariant checks and cycle budget
    /// fire on exactly the cycle they would in an unsliced run. The
    /// starvation scan is gated on the memory system's total
    /// store-conditional failure count: a streak can only reach the
    /// threshold on a cycle that records a failure, so skipping the
    /// per-thread scan on all other cycles cannot move the abort.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Machine::run`], surfaced on the same cycle.
    pub fn run_for(
        &mut self,
        run: &mut SlicedRun,
        budget: u64,
    ) -> Result<Option<RunReport>, SimError> {
        if self.program.is_none() {
            return Err(SimError::NoProgram);
        }
        let slice_end = self.cycle.saturating_add(budget);
        loop {
            let done = self.step();
            // The oracle only accumulates during stepped cycles (memory
            // traffic pins the machine to single-stepping), so polling
            // here catches every violation on the cycle it commits —
            // including one on the final step.
            if let Some(v) = self.mem.oracle_violation() {
                return Err(SimError::AtomicityViolation {
                    cycle: self.cycle,
                    violation: v.clone(),
                });
            }
            if done {
                return Ok(Some(self.report()));
            }
            // Starvation check directly after the step: SC outcomes are
            // only recorded during stepped cycles (a busy memory unit pins
            // the machine to single-stepping, see `fast_forward`), so the
            // threshold crossing — and this abort — lands on the same
            // cycle with and without fast-forwarding.
            if let Some(threshold) = self.cfg.starvation_threshold {
                let failures = self.mem.stats().sc_failures;
                if failures != run.sc_failures_seen {
                    run.sc_failures_seen = failures;
                    if let Some(err) = self.check_starvation(threshold) {
                        return Err(err);
                    }
                }
            }
            if self.cores.iter().any(|c| c.issued_any) {
                run.last_progress = self.cycle;
            } else if let Some(window) = self.cfg.watchdog_window {
                if self.cycle.saturating_sub(run.last_progress) >= window {
                    return Err(SimError::Livelock {
                        cycle: self.cycle,
                        window,
                        stuck: self.stuck_threads(),
                        stalls: self.stall_totals(),
                        reservations: self.mem.reservation_state(),
                    });
                }
            }
            if let Some(at) = run.next_invariant_check {
                if self.cycle >= at {
                    if let Err(violation) = self.mem.try_check_invariants() {
                        return Err(SimError::InvariantViolation {
                            cycle: self.cycle,
                            violation,
                        });
                    }
                    let period = self.cfg.invariant_check_period.unwrap_or(u64::MAX);
                    run.next_invariant_check = Some(self.cycle.saturating_add(period));
                }
            }
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::MaxCyclesExceeded {
                    cycle: self.cycle,
                    stuck: self.stuck_threads(),
                    stalls: self.stall_totals(),
                });
            }
            if run.fast_forward {
                // Never jump past the cycle at which the watchdog would
                // fire: the jump target is one short of the deadline, so
                // the next (non-issuing) step lands exactly on it.
                let wd_cap = match self.cfg.watchdog_window {
                    Some(w) => run.last_progress.saturating_add(w).saturating_sub(1),
                    None => u64::MAX,
                };
                self.fast_forward(wd_cap);
            }
            if self.cycle >= slice_end {
                return Ok(None);
            }
        }
    }

    /// Builds the [`SimError::Starvation`] diagnostic if any thread's
    /// current consecutive-SC-failure streak has reached `threshold`.
    /// When several threads cross together, the longest streak wins and
    /// ties break toward the lowest global thread id — a deterministic
    /// choice, so `run` and `run_naive` report the same starved thread.
    fn check_starvation(&self, threshold: u64) -> Option<SimError> {
        let mut worst: Option<(usize, u64)> = None;
        for (gid, t) in self.mem.stats().sc_threads.iter().enumerate() {
            if t.cur_streak >= threshold && worst.is_none_or(|(_, s)| t.cur_streak > s) {
                worst = Some((gid, t.cur_streak));
            }
        }
        let (gid, streak) = worst?;
        Some(SimError::Starvation {
            cycle: self.cycle,
            gid,
            streak,
            failures: self
                .mem
                .stats()
                .sc_threads
                .iter()
                .map(|t| t.failures)
                .collect(),
            reservations: self.mem.reservation_state(),
        })
    }

    /// `(global thread id, pc)` of every non-halted thread.
    fn stuck_threads(&self) -> Vec<(usize, usize)> {
        let mut stuck = Vec::new();
        for (c, core) in self.cores.iter().enumerate() {
            for (t, th) in core.threads.iter().enumerate() {
                if !th.is_halted() {
                    stuck.push((c * self.cfg.threads_per_core + t, th.arch.pc));
                }
            }
        }
        stuck
    }

    /// Machine-wide stall-bucket totals so far.
    fn stall_totals(&self) -> StallTotals {
        let mut all = Vec::with_capacity(self.cfg.total_threads());
        for core in &self.cores {
            for th in &core.threads {
                all.push(th.stats.clone());
            }
        }
        StallTotals::from_threads(&all)
    }

    /// Captures the complete simulation state at the current cycle as a
    /// self-contained [`MachineSnapshot`].
    ///
    /// "Complete" means every piece of state that influences timing or
    /// results from here on: per-thread architectural state (scalar,
    /// vector and mask registers, pc), thread statuses and scoreboards,
    /// issue round-robin pointers, stall counters accumulated so far, the
    /// LSU/GSU in-flight queues, the entire memory hierarchy (L1 tags and
    /// GLSC reservations in both tracking modes, L2/directory state,
    /// prefetcher streams, event counters, backing store), the installed
    /// chaos [`FaultPlan`](glsc_mem::FaultPlan) with its RNG state, and
    /// the cycle counter. Continuing from a restored snapshot therefore
    /// produces a [`RunReport`] bit-identical to the uninterrupted run —
    /// under [`run`](Machine::run) and [`run_naive`](Machine::run_naive)
    /// alike. A snapshot may be taken at any cycle boundary, including
    /// while vector memory operations are mid-flight.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            cfg: self.cfg.clone(),
            cycle: self.cycle,
            program: self.program.clone(),
            cores: self.cores.iter().map(Core::snapshot).collect(),
            mem: self.mem.snapshot(),
        }
    }

    /// Encodes the current state as a checkpoint envelope, byte-identical
    /// to `self.snapshot().to_bytes()` but written straight from the
    /// running machine: nothing is copied before it is encoded.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_snapshot(&mut out);
        out
    }

    /// [`Machine::snapshot_bytes`] into `out`, replacing its contents and
    /// reusing its allocation — a checkpointing loop keeps one buffer.
    pub fn write_snapshot(&self, out: &mut Vec<u8>) {
        crate::codec::seal(out, |w| {
            encode_state(
                w,
                &self.cfg,
                self.cycle,
                self.program.as_deref(),
                self.cores.iter().map(Core::parts),
                &self.mem,
            )
        });
    }

    /// Rewinds (or fast-forwards) this machine to the snapshot's state.
    ///
    /// The machine must have been built with the exact configuration the
    /// snapshot was captured under — shape, latencies, memory geometry and
    /// GLSC policy all affect timing, so a mismatch is rejected rather
    /// than reinterpreted.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotMismatch`] when the configurations differ; the
    /// machine is left untouched.
    pub fn restore(&mut self, snap: &MachineSnapshot) -> Result<(), SimError> {
        if self.cfg != snap.cfg {
            return Err(SimError::SnapshotMismatch {
                machine: Box::new(self.cfg.clone()),
                snapshot: Box::new(snap.cfg.clone()),
            });
        }
        self.cycle = snap.cycle;
        self.program = snap.program.clone();
        for (core, cs) in self.cores.iter_mut().zip(&snap.cores) {
            core.restore(cs);
        }
        self.mem.restore(&snap.mem);
        // The completion buffer is drained within every step; between
        // steps it holds no state, only reusable capacity.
        self.comp_buf.clear();
        Ok(())
    }

    /// Builds a brand-new machine from a snapshot — the crash-recovery
    /// path, where the original [`Machine`] no longer exists. Copies the
    /// snapshot's state rather than building an empty machine of the same
    /// shape and overwriting it. Snapshots are consistent by construction:
    /// captured from a machine, or decoded, which checks the configuration
    /// and the shape of every layer against it.
    pub fn from_snapshot(snap: &MachineSnapshot) -> Self {
        let cores = snap
            .cores
            .iter()
            .enumerate()
            .map(|(id, cs)| {
                let mut core = Core::new(id, &snap.cfg);
                core.restore(cs);
                core
            })
            .collect();
        Self {
            cfg: snap.cfg.clone(),
            mem: MemorySystem::from_snapshot(&snap.mem),
            cores,
            program: snap.program.clone(),
            cycle: snap.cycle,
            comp_buf: Vec::new(),
        }
    }

    /// Builds the statistics report for the run so far.
    pub fn report(&self) -> RunReport {
        let mut report = RunReport {
            cycles: self.cycle,
            threads: Vec::with_capacity(self.cfg.total_threads()),
            mem: self.mem.stats().clone(),
            memory_order: self.cfg.mem.memory_order,
            ..RunReport::default()
        };
        for core in &self.cores {
            for th in &core.threads {
                report.threads.push(th.stats.clone());
            }
            report.lsu.accumulate(core.memunit.lsu_stats());
            report.gsu.accumulate(core.memunit.gsu_stats());
        }
        report
    }
}

/// A self-contained point-in-time copy of a [`Machine`], produced by
/// [`Machine::snapshot`].
///
/// The snapshot owns deep copies of every mutable layer (cores, memory
/// system) and shares only the immutable [`Program`] (via `Arc`), so it
/// remains valid however the original machine evolves — or after it is
/// dropped entirely ([`Machine::from_snapshot`]).
#[derive(Clone, Debug)]
pub struct MachineSnapshot {
    cfg: MachineConfig,
    cycle: u64,
    program: Option<Arc<Program>>,
    cores: Vec<crate::cpu::CoreSnapshot>,
    mem: glsc_mem::MemSnapshot,
}

impl MachineSnapshot {
    /// The cycle at which the snapshot was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration the snapshotted machine was built with.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Whether a program was loaded at capture time.
    pub fn has_program(&self) -> bool {
        self.program.is_some()
    }

    /// The program loaded at capture time, if any.
    pub fn program(&self) -> Option<&Program> {
        self.program.as_deref()
    }

    /// Whether every memory unit was drained at capture time (no vector
    /// or scalar memory operations in flight).
    pub fn is_quiescent(&self) -> bool {
        self.cores.iter().all(|c| c.memunit_is_idle())
    }
}

/// The abort-detector state [`Machine::run_for`] threads across calls, so
/// a run split into slices fires the watchdog, starvation and invariant
/// checks on exactly the cycles an unsliced [`Machine::run`] would. Built
/// for checkpointing drivers (`glsc-serve`, the fleet): step a bounded
/// number of cycles, snapshot, repeat.
#[derive(Debug)]
pub struct SlicedRun {
    /// Last cycle at which any thread issued (watchdog anchor). A
    /// fast-forward jump always lands on a cycle where a thread can
    /// issue, so a live machine keeps refreshing this even across jumps
    /// wider than the watchdog window.
    last_progress: u64,
    /// Next cycle at which to run the periodic coherence check.
    next_invariant_check: Option<u64>,
    /// Total SC failures at the last starvation scan (scan gate).
    sc_failures_seen: u64,
    /// Jump over dead cycles; off only for [`Machine::run_naive`].
    fast_forward: bool,
}

impl SlicedRun {
    /// Detector state for `machine`, about to start or resume running.
    /// Create this *after* restoring a snapshot, not before.
    pub fn new(machine: &Machine) -> Self {
        Self {
            last_progress: machine.cycle,
            next_invariant_check: machine
                .cfg
                .invariant_check_period
                .map(|p| machine.cycle.saturating_add(p)),
            sc_failures_seen: machine.mem.stats().sc_failures,
            fast_forward: true,
        }
    }
}

/// The one snapshot encoder: [`MachineSnapshot`]'s `Wire` impl and
/// [`Machine::write_snapshot`] both call it on borrowed parts.
fn encode_state<'a, M: glsc_wire::Wire>(
    w: &mut glsc_wire::Writer,
    cfg: &MachineConfig,
    cycle: u64,
    program: Option<&Program>,
    cores: impl ExactSizeIterator<Item = crate::cpu::CoreParts<'a>>,
    mem: &M,
) {
    use glsc_wire::Wire;
    cfg.encode(w);
    cycle.encode(w);
    match program {
        None => w.put_u8(0),
        Some(p) => {
            w.put_u8(1);
            p.encode(w);
        }
    }
    w.put_u64(cores.len() as u64);
    for core in cores {
        core.encode(w);
    }
    mem.encode(w);
}

impl glsc_wire::Wire for MachineSnapshot {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        let Self {
            cfg,
            cycle,
            program,
            cores,
            mem,
        } = self;
        encode_state(
            w,
            cfg,
            *cycle,
            program.as_deref(),
            cores.iter().map(crate::cpu::CoreSnapshot::parts),
            mem,
        );
    }

    /// Decodes and checks shape: a valid configuration, one core per
    /// configured core with one thread per configured thread, and a
    /// memory system captured under the same memory configuration (see
    /// [`glsc_mem::MemSnapshot::decode_for`]) with one L1 per core. A
    /// decoded snapshot can therefore always be hydrated or restored.
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        use glsc_wire::Wire;
        let at = r.pos();
        let cfg = MachineConfig::decode(r)?;
        if cfg.check().is_err() {
            return Err(glsc_wire::WireError::Invalid {
                at,
                what: "machine config",
            });
        }
        let cycle = u64::decode(r)?;
        let at = r.pos();
        let program = match r.get_u8()? {
            0 => None,
            1 => Some(Arc::new(Program::decode(r)?)),
            _ => {
                return Err(glsc_wire::WireError::Invalid {
                    at,
                    what: "program tag",
                })
            }
        };
        let at = r.pos();
        let cores: Vec<crate::cpu::CoreSnapshot> = Wire::decode(r)?;
        if cores.len() != cfg.cores
            || cores
                .iter()
                .any(|c| c.thread_count() != cfg.threads_per_core)
        {
            return Err(glsc_wire::WireError::Invalid {
                at,
                what: "core shape",
            });
        }
        let at = r.pos();
        let mem = glsc_mem::MemSnapshot::decode_for(r, &cfg.mem)?;
        if mem.num_cores() != cfg.cores {
            return Err(glsc_wire::WireError::Invalid {
                at,
                what: "memory system core count",
            });
        }
        Ok(Self {
            cfg,
            cycle,
            program,
            cores,
            mem,
        })
    }
}
