//! The traced replay: the same jobs as an untraced pass, driven through
//! each layer's public functions with a span around every call.
//!
//! The serve replay mirrors `glsc_serve::session::run_session` and the
//! supervisor it calls (admission, journaling, result-cache lookups,
//! config-affine fleet stepping with cycle-cadenced checkpoints, result
//! frames) as the service does them today; the figure replay mirrors
//! `glsc_sim::Fleet::run_each`. Fidelity checks in `main` compare the
//! replay's counts with the real run's, so the per-layer split cannot
//! describe a different program without the run failing.

use crate::expect::{fig6_rows, Expected};
use crate::inputs::{KernelJob, WIDTH};
use crate::measure::{figures_setup, fresh_dir, publish, Figures, Input};
use crate::trace::span;
use glsc_bench::codec::encode_report;
use glsc_bench::jobspec::WireJobSpec;
use glsc_bench::store::{cfg_fingerprint, job_key};
use glsc_bench::JobStore;
use glsc_kernels::{build_named, Dataset, Variant, Workload};
use glsc_serve::journal::{replay as replay_journal, Journal, JournalRecord};
use glsc_serve::proto::{read_message, write_message, Reply, Request};
use glsc_serve::queue::{Admission, AdmissionQueue, QueueEntry};
use glsc_sim::{FleetJob, Machine, MachineConfig, MachineSnapshot, RunReport, SlicedRun};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Service defaults the serve workloads run under (`ServiceConfig::new`).
pub const SERVE_QUANTUM: u64 = 20_000;
pub const SERVE_WIDTH: usize = 4;
pub const SERVE_QUEUE_CAP: usize = 64;
/// `Fleet::new()` defaults, which the figure workload runs under.
pub const FLEET_QUANTUM: u64 = 8192;
pub const FLEET_WIDTH: usize = 4;

/// Simulated work summed over every job the replay simulated. These are
/// `RunReport` counts: they repeat exactly for a given seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimWork {
    pub cycles: u64,
    pub instructions: u64,
    pub mem_stall_cycles: u64,
    pub gsu_line_requests: u64,
    pub gsu_sc_elem_attempts: u64,
    pub gsu_sc_elem_successes: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub sc_successes: u64,
    pub sc_failures: u64,
    pub noc_msgs: u64,
    pub noc_queue_cycles: u64,
}

impl SimWork {
    fn add(&mut self, r: &RunReport) {
        self.cycles += r.cycles;
        self.instructions += r.total_instructions();
        self.mem_stall_cycles += r.total_mem_stalls();
        self.gsu_line_requests += r.gsu.line_requests;
        self.gsu_sc_elem_attempts += r.gsu.sc_elem_attempts;
        self.gsu_sc_elem_successes += r.gsu.sc_elem_successes;
        self.l1_misses += r.mem.l1_misses;
        self.l2_misses += r.mem.l2_misses;
        self.sc_successes += r.mem.sc_successes;
        self.sc_failures += r.mem.sc_failures;
        self.noc_msgs += r.mem.noc.total_msgs();
        self.noc_queue_cycles += r.mem.noc.queue_cycles;
    }

    fn merge(&mut self, o: &SimWork) {
        self.cycles += o.cycles;
        self.instructions += o.instructions;
        self.mem_stall_cycles += o.mem_stall_cycles;
        self.gsu_line_requests += o.gsu_line_requests;
        self.gsu_sc_elem_attempts += o.gsu_sc_elem_attempts;
        self.gsu_sc_elem_successes += o.gsu_sc_elem_successes;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
        self.sc_successes += o.sc_successes;
        self.sc_failures += o.sc_failures;
        self.noc_msgs += o.noc_msgs;
        self.noc_queue_cycles += o.noc_queue_cycles;
    }
}

/// What one replay did, besides its spans.
#[derive(Debug, Default)]
pub struct ReplayOut {
    pub submitted: usize,
    pub done: usize,
    pub store_hits: usize,
    pub journal_appends: usize,
    pub journal_bytes: u64,
    pub checkpoints: usize,
    pub snapshot_bytes: u64,
    pub pauses: usize,
    pub frames: usize,
    pub frame_bytes: u64,
    pub queue_max_depth: usize,
    pub queue_shed: usize,
    /// Per job: seconds from the start of its fleet call to its mount.
    pub slot_waits: Vec<f64>,
    pub work: SimWork,
    /// The first simulated job of every machine configuration, for the
    /// snapshot probe.
    pub probe_jobs: Vec<FleetJob>,
    pub errors: Vec<String>,
}

struct Member {
    idx: usize,
    machine: Machine,
    run: SlicedRun,
    queue: VecDeque<usize>,
}

/// What the fleet replica reports to its caller.
enum Event<'m> {
    /// A member finished a quantum and keeps running.
    Paused(usize, &'m Machine),
    /// A member's job finished with this report.
    Done(usize, &'m Machine, &'m RunReport),
}

/// Counts the fleet replica keeps.
#[derive(Debug, Default)]
struct FleetStats {
    pauses: usize,
    work: SimWork,
    slot_waits: Vec<f64>,
    probe_jobs: Vec<FleetJob>,
}

impl ReplayOut {
    fn absorb(&mut self, stats: FleetStats) {
        self.pauses += stats.pauses;
        self.slot_waits.extend(stats.slot_waits);
        for job in stats.probe_jobs {
            if !self.probe_jobs.iter().any(|p| p.cfg == job.cfg) {
                self.probe_jobs.push(job);
            }
        }
        self.work.merge(&stats.work);
    }
}

/// The config-affine batched stepping of `glsc_sim::Fleet`: jobs grouped
/// by configuration in order of first appearance, `width` slots each
/// draining one group, one `quantum` per live member per pass, machines
/// reset and reused within a group.
fn run_fleet(
    quantum: u64,
    width: usize,
    items: Vec<FleetJob>,
    mut on: impl FnMut(Event<'_>) -> std::io::Result<()>,
) -> std::io::Result<FleetStats> {
    let start = Instant::now();
    let mut stats = FleetStats::default();
    let mut groups: VecDeque<(MachineConfig, VecDeque<usize>)> = VecDeque::new();
    for (i, item) in items.iter().enumerate() {
        match groups.iter_mut().find(|(cfg, _)| *cfg == item.cfg) {
            Some((_, q)) => q.push_back(i),
            None => groups.push_back((item.cfg.clone(), VecDeque::from([i]))),
        }
    }
    for (_, q) in &groups {
        stats.probe_jobs.push(items[q[0]].clone());
    }
    let mut items: Vec<Option<FleetJob>> = items.into_iter().map(Some).collect();
    stats.slot_waits = vec![0.0; items.len()];
    let mut pool: Vec<Machine> = Vec::new();
    let mut active: Vec<Member> = Vec::new();
    let mount = |mut machine: Machine,
                 mut queue: VecDeque<usize>,
                 items: &mut [Option<FleetJob>],
                 waits: &mut [f64]| {
        let idx = queue.pop_front().expect("group queues are non-empty");
        let item = items[idx].take().expect("each job is mounted once");
        span("fleet.mount", || {
            if let Some(base) = item.base {
                machine.mem_mut().backing_mut().set_base(base);
            }
            machine.load_program(item.program);
        });
        waits[idx] = start.elapsed().as_secs_f64();
        let run = SlicedRun::new(&machine);
        Member {
            idx,
            machine,
            run,
            queue,
        }
    };
    loop {
        while active.len() < width {
            let Some((cfg, queue)) = groups.pop_front() else {
                break;
            };
            let machine = match pool.iter().position(|m| *m.cfg() == cfg) {
                Some(i) => pool.swap_remove(i),
                None => span("sim.build", || Machine::new(cfg)),
            };
            active.push(mount(machine, queue, &mut items, &mut stats.slot_waits));
        }
        if active.is_empty() {
            // The fleet drops its pooled machines when it returns.
            span("sim.drop", || drop(pool));
            return Ok(stats);
        }
        let mut i = 0;
        while i < active.len() {
            let m = &mut active[i];
            match span("fleet.step", || m.machine.run_for(&mut m.run, quantum)) {
                Ok(None) => {
                    stats.pauses += 1;
                    on(Event::Paused(m.idx, &m.machine))?;
                    i += 1;
                }
                Ok(Some(report)) => {
                    stats.work.add(&report);
                    on(Event::Done(m.idx, &m.machine, &report))?;
                    let member = active.swap_remove(i);
                    let mut machine = member.machine;
                    span("sim.reset", || machine.reset());
                    if member.queue.is_empty() {
                        pool.push(machine);
                    } else {
                        active.push(mount(
                            machine,
                            member.queue,
                            &mut items,
                            &mut stats.slot_waits,
                        ));
                    }
                }
                Err(e) => return Err(std::io::Error::other(format!("simulation failed: {e}"))),
            }
        }
    }
}

/// The figure replay over jobs built by [`figures_setup`] (under a
/// `bench.setup` span). The timed part, the analogue of the untraced
/// pass's wall time, runs under `bench.replay`.
pub fn figures_replay(seed: u64, state: &Path, expected: &Expected) -> std::io::Result<ReplayOut> {
    let Figures {
        plan,
        workloads,
        jobs,
    } = span("bench.setup", || figures_setup(seed, state))?;
    let mut out = ReplayOut {
        submitted: plan.len(),
        ..ReplayOut::default()
    };
    span("bench.replay", || {
        let mut cycles = vec![0u64; plan.len()];
        let stats = run_fleet(FLEET_QUANTUM, FLEET_WIDTH, jobs, |event| {
            if let Event::Done(i, machine, report) = event {
                let id = plan[i].id();
                match span("kernels.validate", || {
                    (workloads[i].validate)(machine.mem().backing())
                }) {
                    Ok(()) => {
                        if let Err(e) = expected.check(&id, report.cycles) {
                            out.errors.push(e);
                        }
                        cycles[i] = report.cycles;
                    }
                    Err(e) => out.errors.push(format!("{id}: validation failed: {e}")),
                }
            }
            Ok(())
        })?;
        out.absorb(stats);
        out.done = cycles.iter().filter(|&&c| c != 0).count();
        let by_job: HashMap<KernelJob, u64> = plan.iter().copied().zip(cycles).collect();
        let table = fig6_rows(|job| by_job[job]).join("\n");
        std::fs::write(state.join("fig6-A.txt"), table + "\n")
    })?;
    Ok(out)
}

/// One lowered job of the serve replay.
struct ServeJob {
    id: String,
    key: String,
    workload: Workload,
    cfg: MachineConfig,
}

/// Per-session state the serve replay threads through its calls.
struct Session<'a> {
    state: &'a Path,
    expected: &'a Expected,
    store: JobStore,
    journal: Journal,
    ledgers: HashMap<String, glsc_serve::journal::JobLedger>,
    queue: AdmissionQueue,
    replies: Vec<u8>,
    out: ReplayOut,
}

impl Session<'_> {
    fn append(&mut self, rec: JournalRecord) -> std::io::Result<()> {
        self.out.journal_appends += 1;
        span("journal.append", || self.journal.append(&rec))
    }

    fn reply(&mut self, reply: Reply) {
        let before = self.replies.len();
        span("proto.encode", || write_message(&mut self.replies, &reply))
            .expect("writing to a Vec cannot fail");
        self.out.frames += 1;
        self.out.frame_bytes += (self.replies.len() - before) as u64;
    }

    fn job_done(&mut self, id: &str, report: &RunReport) {
        if let Err(e) = self.expected.check(id, report.cycles) {
            self.out.errors.push(e);
        }
        self.out.done += 1;
        let encoded = span("store.codec", || encode_report(report));
        self.reply(Reply::JobDone {
            id: id.to_string(),
            cycles: report.cycles,
            report: encoded,
            chaos: None,
        });
    }

    fn submit(&mut self, priority: u8, spec: WireJobSpec) -> std::io::Result<()> {
        let id = spec.id();
        if let Err(e) = span("proto.validate", || spec.validate()) {
            self.out.errors.push(format!("{id}: rejected: {e}"));
            self.reply(Reply::Rejected {
                id,
                reason: e.to_string(),
            });
            return Ok(());
        }
        let entry = QueueEntry {
            id: id.clone(),
            priority,
            spec: spec.clone(),
        };
        let admission = span("queue.offer", || self.queue.offer(entry));
        self.out.queue_max_depth = self.out.queue_max_depth.max(self.queue.len());
        match admission {
            Admission::Enqueued => {
                let bytes = span("proto.spec_encode", || spec.to_bytes());
                self.append(JournalRecord::Submitted {
                    job: id.clone(),
                    priority,
                    spec: bytes.clone(),
                })?;
                let ledger = self.ledgers.entry(id.clone()).or_default();
                ledger.accepted = true;
                ledger.pending = Some((priority, bytes));
                self.reply(Reply::Accepted { id });
            }
            Admission::Duplicate => self.reply(Reply::Accepted { id }),
            Admission::Shed { .. } | Admission::Evicted { .. } => {
                self.out.queue_shed += 1;
                self.out.errors.push(format!("{id}: shed"));
            }
        }
        Ok(())
    }

    fn checkpoint(&mut self, id: &str, seq: u64, machine: &Machine) -> std::io::Result<()> {
        let path = self.state.join("checkpoints").join(format!("{id}.ckpt"));
        let snap = span("snapshot.capture", || machine.snapshot());
        let bytes = span("snapshot.encode", || snap.to_bytes());
        span("checkpoint.write", || {
            std::fs::create_dir_all(path.parent().expect("checkpoint paths have a parent"))?;
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            std::fs::write(&tmp, &bytes)?;
            std::fs::rename(&tmp, &path)
        })?;
        self.out.checkpoints += 1;
        self.out.snapshot_bytes += bytes.len() as u64;
        self.append(JournalRecord::Running {
            job: id.to_string(),
            seq,
            cycle: machine.cycle(),
        })
    }

    /// The `Run` request: lower every queued spec, settle what the
    /// journal and result cache already hold, step the rest.
    fn run_queue(&mut self) -> std::io::Result<()> {
        let entries = span("queue.drain", || self.queue.drain());
        let mut jobs = Vec::with_capacity(entries.len());
        for entry in entries {
            let spec = entry.spec;
            let (cfg, workload) = span("kernels.build", || {
                let cfg = MachineConfig::paper(
                    spec.cores as usize,
                    spec.tpc as usize,
                    spec.width as usize,
                )
                .with_memory_order(spec.memory_order);
                let w = build_named(
                    &spec.kernel_name(),
                    spec.resolve_dataset(),
                    spec.resolve_variant(),
                    &cfg,
                );
                w.map(|w| (cfg, w))
            })
            .map_err(std::io::Error::other)?;
            let key = span("store.key", || {
                job_key(&[&entry.id], workload.fingerprint(), cfg_fingerprint(&cfg))
            });
            jobs.push(ServeJob {
                id: entry.id,
                key,
                workload,
                cfg,
            });
        }

        let mut pending = Vec::new();
        for (gi, job) in jobs.iter().enumerate() {
            let mut ledger = self.ledgers.get(&job.id).cloned().unwrap_or_default();
            if ledger.done.is_some() {
                if let Some(report) = span("store.load", || self.store.load(&job.key)) {
                    self.out.store_hits += 1;
                    if ledger.pending.is_some() {
                        self.append(JournalRecord::Done {
                            job: job.id.clone(),
                            chaos: None,
                        })?;
                    }
                    self.job_done(&job.id, &report);
                    continue;
                }
            }
            if !ledger.accepted {
                self.append(JournalRecord::Accepted {
                    job: job.id.clone(),
                })?;
                ledger.accepted = true;
            }
            pending.push(gi);
        }

        let mut published = HashMap::new();
        let items = span("fleet.enqueue", || {
            pending
                .iter()
                .map(|&gi| {
                    let job = &jobs[gi];
                    FleetJob::new(job.cfg.clone(), job.workload.program.clone())
                        .with_base(publish(&mut published, &job.workload))
                })
                .collect()
        });
        let mut seqs = vec![0u64; pending.len()];
        let stats = run_fleet(SERVE_QUANTUM, SERVE_WIDTH, items, |event| match event {
            Event::Paused(local, machine) => {
                seqs[local] += 1;
                self.checkpoint(&jobs[pending[local]].id, seqs[local], machine)
            }
            Event::Done(local, machine, report) => {
                self.finish(&jobs[pending[local]], machine, report)
            }
        })?;
        self.out.absorb(stats);
        for job in &jobs {
            let ledger = self.ledgers.entry(job.id.clone()).or_default();
            ledger.done = Some(None);
            ledger.pending = None;
        }
        self.reply(Reply::SweepDone {
            ok: jobs.len() as u32,
            failed: 0,
            shed: self.out.queue_shed as u32,
        });
        Ok(())
    }

    /// Completion: validate, persist, journal, drop the checkpoint, reply.
    fn finish(
        &mut self,
        job: &ServeJob,
        machine: &Machine,
        report: &RunReport,
    ) -> std::io::Result<()> {
        if let Err(e) = span("kernels.validate", || {
            (job.workload.validate)(machine.mem().backing())
        }) {
            self.out
                .errors
                .push(format!("{}: validation failed: {e}", job.id));
            return Ok(());
        }
        span("store.save", || self.store.save(&job.key, report));
        self.append(JournalRecord::Done {
            job: job.id.clone(),
            chaos: None,
        })?;
        let ckpt = self
            .state
            .join("checkpoints")
            .join(format!("{}.ckpt", job.id));
        span("checkpoint.remove", || std::fs::remove_file(ckpt)).ok();
        self.job_done(&job.id, report);
        Ok(())
    }
}

/// The serve replay over the same request stream the untraced pass sends.
/// The whole session runs under one `bench.replay` span.
pub fn serve_replay(
    input: &Input,
    state: &Path,
    expected: &Expected,
) -> std::io::Result<ReplayOut> {
    fresh_dir(state)?;
    let journal_path = state.join("journal.log");
    span("bench.replay", || {
        let (journal, records) = span("journal.open", || Journal::open(&journal_path))?;
        let mut s = Session {
            state,
            expected,
            store: JobStore::at(state.join("cache"), true),
            journal,
            ledgers: replay_journal(&records),
            queue: AdmissionQueue::new(SERVE_QUEUE_CAP),
            replies: Vec::new(),
            out: ReplayOut::default(),
        };
        let mut rest = &input.bytes[..];
        loop {
            let before = rest.len();
            let request = span("proto.decode", || read_message::<Request>(&mut rest))
                .map_err(|e| std::io::Error::other(format!("request stream: {e}")))?;
            s.out.frame_bytes += (before - rest.len()) as u64;
            let Some(request) = request else { break };
            s.out.frames += 1;
            match request {
                Request::Submit { priority, spec } => {
                    s.out.submitted += 1;
                    s.submit(priority, spec)?;
                }
                Request::Run => s.run_queue()?,
                Request::Shutdown => break,
            }
        }
        s.out.journal_bytes = std::fs::metadata(&journal_path)?.len();
        Ok(s.out)
    })
}

/// Calls per layer in the probe's unit-cost measurements.
const PROBE_CALLS: usize = 16;

/// Runs outside the replay span, so it adds nothing to the layer split.
///
/// Snapshot costs, measured on the first job of every configuration:
/// rebuild (fresh machine, dataset mounted, program loaded), one quantum
/// of stepping, then capture, encode, decode and restore of that state.
///
/// Unit costs of the service layers, [`PROBE_CALLS`] calls each under
/// `probe.<layer>.<call>` spans, on the probed state and its report: a
/// workload that never calls a layer (the figure workload never touches
/// the journal) still measures what one call costs on this machine.
pub fn probe(jobs: &[FleetJob], quantum: u64, dir: &Path) -> std::io::Result<()> {
    let fail =
        |what: &str, e: &dyn std::fmt::Display| std::io::Error::other(format!("probe {what}: {e}"));
    let mut sample = None;
    for job in jobs {
        let mut machine = span("probe.rebuild", || {
            let mut m = Machine::new(job.cfg.clone());
            if let Some(base) = &job.base {
                m.mem_mut().backing_mut().set_base(Arc::clone(base));
            }
            m.load_program(job.program.clone());
            m
        });
        let mut run = SlicedRun::new(&machine);
        span("probe.step", || machine.run_for(&mut run, quantum)).map_err(|e| fail("run", &e))?;
        let snap = span("snapshot.capture", || machine.snapshot());
        let bytes = span("snapshot.encode", || snap.to_bytes());
        let decoded = span("snapshot.decode", || MachineSnapshot::from_bytes(&bytes))
            .map_err(|e| fail("decode", &e))?;
        let restored = span("snapshot.restore", || Machine::from_snapshot(&decoded));
        if restored.cycle() != machine.cycle() {
            return Err(std::io::Error::other("probe restore lost the cycle"));
        }
        sample = Some((bytes, machine.report()));
    }
    let Some((bytes, report)) = sample else {
        return Ok(());
    };

    fresh_dir(dir)?;
    let spec = WireJobSpec::kernel("HIP", Dataset::A, Variant::Glsc, (1, 1), WIDTH);
    let mut queue = AdmissionQueue::new(PROBE_CALLS);
    let (mut journal, _) = Journal::open(&dir.join("journal.log"))?;
    let store = JobStore::at(dir.join("cache"), true);
    let reply = Reply::JobDone {
        id: spec.id(),
        cycles: report.cycles,
        report: encode_report(&report),
        chaos: None,
    };
    let mut frames = Vec::new();
    for i in 0..PROBE_CALLS {
        let id = format!("probe-{i}");
        let entry = QueueEntry {
            id: id.clone(),
            priority: 0,
            spec: spec.clone(),
        };
        span("probe.queue.offer", || queue.offer(entry));
        span("probe.proto.encode", || write_message(&mut frames, &reply))?;
        span("probe.journal.append", || {
            journal.append(&JournalRecord::Done {
                job: id.clone(),
                chaos: None,
            })
        })?;
        span("probe.store.save", || store.save(&id, &report));
        let path = dir.join(format!("{id}.ckpt"));
        span("probe.checkpoint.write", || {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &bytes)?;
            std::fs::rename(&tmp, &path)
        })?;
    }
    let mut rest = &frames[..];
    for i in 0..PROBE_CALLS {
        span("probe.proto.decode", || read_message::<Reply>(&mut rest))
            .map_err(|e| fail("decode", &e))?;
        if span("probe.store.load", || store.load(&format!("probe-{i}"))).is_none() {
            return Err(std::io::Error::other("probe store lost an entry"));
        }
    }
    Ok(())
}
