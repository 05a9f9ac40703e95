//! Untraced runs: the workloads through the program's public entry
//! points, timed from outside.
//!
//! The serve workloads feed pre-encoded request frames to
//! `glsc_serve::session::run_session` through a reader that stamps when
//! each `Submit` frame is read, and collect replies through a writer that
//! stamps when each reply frame is flushed, so per-job latency needs no
//! change inside the service. The figure workload calls
//! `glsc_sim::Fleet::run_each` directly.

use crate::expect::{fig6_rows, Expected};
use crate::inputs::{figures_plan, KernelJob, WIDTH};
use crate::trace::span;
use glsc_bench::jobspec::WireJobSpec;
use glsc_kernels::{build_named, Dataset, Workload};
use glsc_serve::journal::{Journal, JournalRecord};
use glsc_serve::proto::{read_message, write_message, Reply, Request};
use glsc_serve::session::{run_session, SessionEnd};
use glsc_serve::ServiceConfig;
use glsc_sim::{BackingBase, Fleet, FleetJob, MachineConfig};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One timed pass over a workload's jobs.
#[derive(Debug, Default)]
pub struct Iteration {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Per-job latency, one sample per submission answered `JobDone`.
    pub latencies: Vec<f64>,
    /// Bytes written (`wchar`) and write calls (`syscw`) during the pass.
    pub wchar: u64,
    pub syscw: u64,
    pub submitted: usize,
    pub done: usize,
    /// `JobDone` replies for a job already answered earlier in the
    /// session: served from the result cache.
    pub cache_served: usize,
    /// Records in the state directory's journal after the pass, and the
    /// `Running` (checkpoint) records among them.
    pub journal_records: usize,
    pub checkpoints: usize,
    /// Everything that makes the pass incorrect.
    pub errors: Vec<String>,
}

/// Submissions answered `JobDone` over submissions. Shed, rejected,
/// failed and quarantined jobs all count against it.
pub fn done_frac(passes: &[Iteration]) -> f64 {
    let submitted: usize = passes.iter().map(|p| p.submitted).sum();
    let done: usize = passes.iter().map(|p| p.done).sum();
    done as f64 / submitted.max(1) as f64
}

/// Write-side counters from `/proc/self/io`.
pub fn proc_io() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("wchar:"), field("syscw:"))
}

/// Resident high-water mark of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// A fresh, empty state directory.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// The request stream a client sends: each round's `Submit` frames,
/// then `Run`.
pub struct Input {
    pub bytes: Vec<u8>,
    /// Byte offset of every frame.
    pub frame_starts: Vec<usize>,
    /// For each frame, the job id it submits (`None` for `Run`).
    pub submits: Vec<Option<String>>,
}

impl Input {
    pub fn encode(rounds: &[Vec<WireJobSpec>]) -> Self {
        let mut input = Self {
            bytes: Vec::new(),
            frame_starts: Vec::new(),
            submits: Vec::new(),
        };
        for round in rounds {
            for spec in round {
                input.push(
                    &Request::Submit {
                        priority: 0,
                        spec: spec.clone(),
                    },
                    Some(spec.id()),
                );
            }
            input.push(&Request::Run, None);
        }
        input
    }

    fn push(&mut self, req: &Request, id: Option<String>) {
        self.frame_starts.push(self.bytes.len());
        write_message(&mut self.bytes, req).expect("writing to a Vec cannot fail");
        self.submits.push(id);
    }
}

/// Serves `input` and stamps the moment the reader reaches each frame.
pub struct StampReader<'a> {
    input: &'a Input,
    pos: usize,
    pub stamps: Vec<Instant>,
}

impl<'a> StampReader<'a> {
    pub fn new(input: &'a Input) -> Self {
        Self {
            input,
            pos: 0,
            stamps: Vec::with_capacity(input.frame_starts.len()),
        }
    }
}

impl Read for StampReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let next = self.stamps.len();
        let mut end = self.input.bytes.len();
        if let Some(&start) = self.input.frame_starts.get(next) {
            if self.pos == start {
                self.stamps.push(Instant::now());
                end = self
                    .input
                    .frame_starts
                    .get(next + 1)
                    .copied()
                    .unwrap_or(end);
            } else {
                end = start;
            }
        }
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.input.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Collects reply bytes and stamps every flush; the protocol flushes
/// once per frame.
#[derive(Default)]
pub struct StampWriter {
    pub bytes: Vec<u8>,
    pub flushes: Vec<(usize, Instant)>,
}

impl Write for StampWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes.push((self.bytes.len(), Instant::now()));
        Ok(())
    }
}

/// Decodes the session's replies, each with the moment it was flushed.
pub fn stamped_replies(out: &StampWriter) -> Result<Vec<(Reply, Instant)>, String> {
    let flushed: HashMap<usize, Instant> = out.flushes.iter().copied().collect();
    let mut rest = &out.bytes[..];
    let mut replies = Vec::new();
    loop {
        match read_message::<Reply>(&mut rest) {
            Ok(Some(reply)) => {
                let end = out.bytes.len() - rest.len();
                let at = *flushed
                    .get(&end)
                    .ok_or_else(|| format!("reply frame ending at {end} was never flushed"))?;
                replies.push((reply, at));
            }
            Ok(None) => return Ok(replies),
            Err(e) => return Err(format!("undecodable reply stream: {e}")),
        }
    }
}

/// Runs one protocol session over `input` in `state` (fresh and empty)
/// and checks every reply. With `expected`, every `JobDone` must carry
/// the recorded cycle count.
pub fn serve_pass(
    input: &Input,
    state: &Path,
    expected: Option<&Expected>,
) -> std::io::Result<Iteration> {
    let mut it = Iteration::default();
    let cfg = ServiceConfig::new(state.to_path_buf());
    let mut reader = StampReader::new(input);
    let mut writer = StampWriter::default();
    let io0 = proc_io();
    let end = run_session(&cfg, &mut reader, &mut writer)?;
    let io1 = proc_io();
    (it.wchar, it.syscw) = (io1.0 - io0.0, io1.1 - io0.1);
    if end != SessionEnd::Closed {
        it.errors.push(format!("session ended {end:?}"));
    }

    let mut submitted_at: HashMap<&str, VecDeque<Instant>> = HashMap::new();
    for (frame, id) in input.submits.iter().enumerate() {
        if let Some(id) = id {
            it.submitted += 1;
            let at = reader.stamps.get(frame).copied();
            match at {
                Some(at) => submitted_at.entry(id).or_default().push_back(at),
                None => it.errors.push(format!("{id}: submit frame never read")),
            }
        }
    }
    let first = reader.stamps.first().copied();
    let mut last = first;
    let replies = stamped_replies(&writer).map_err(std::io::Error::other)?;
    let mut answered: HashMap<String, usize> = HashMap::new();
    for (reply, at) in replies {
        match reply {
            Reply::Accepted { .. } => {}
            Reply::JobDone { id, cycles, .. } => {
                if let Some(Err(e)) = expected.map(|x| x.check(&id, cycles)) {
                    it.errors.push(e);
                }
                let Some(sent) = submitted_at
                    .get_mut(id.as_str())
                    .and_then(VecDeque::pop_front)
                else {
                    it.errors
                        .push(format!("{id}: JobDone without a submission"));
                    continue;
                };
                it.latencies.push(at.duration_since(sent).as_secs_f64());
                it.done += 1;
                last = Some(at);
                let n = answered.entry(id).or_default();
                if *n > 0 {
                    it.cache_served += 1;
                }
                *n += 1;
            }
            Reply::SweepDone { failed, shed, .. } => {
                if failed > 0 || shed > 0 {
                    it.errors
                        .push(format!("sweep reported {failed} failed, {shed} shed"));
                }
            }
            other => it.errors.push(format!("unexpected reply {other:?}")),
        }
    }
    if let (Some(first), Some(last)) = (first, last) {
        it.wall_s = last.duration_since(first).as_secs_f64();
    }
    if it.done != it.submitted {
        it.errors.push(format!(
            "{} of {} submissions answered JobDone",
            it.done, it.submitted
        ));
    }
    let (_, records) = Journal::open(&state.join("journal.log"))?;
    it.journal_records = records.len();
    it.checkpoints = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Running { .. }))
        .count();
    Ok(it)
}

/// Publishes each distinct dataset image once, as the service and the
/// harness do, for mounting copy-on-write.
pub fn publish(published: &mut HashMap<u64, Arc<BackingBase>>, w: &Workload) -> Arc<BackingBase> {
    let base = published
        .entry(w.image.fingerprint())
        .or_insert_with(|| span("kernels.publish", || w.image.publish()));
    Arc::clone(base)
}

/// The figure workload's jobs, built and mounted as the harness does.
pub struct Figures {
    pub plan: Vec<KernelJob>,
    pub workloads: Vec<Workload>,
    pub jobs: Vec<FleetJob>,
}

/// `figures-a` set-up: builds the 56 jobs, publishes each distinct
/// dataset image once, and empties the state directory.
pub fn figures_setup(seed: u64, state: &Path) -> std::io::Result<Figures> {
    let plan = figures_plan(seed);
    let mut workloads = Vec::with_capacity(plan.len());
    let mut jobs = Vec::with_capacity(plan.len());
    let mut published = HashMap::new();
    for job in &plan {
        let cfg = MachineConfig::paper(job.shape.0, job.shape.1, WIDTH);
        let w = span("kernels.build", || {
            build_named(job.kernel, Dataset::A, job.variant, &cfg)
        })
        .map_err(std::io::Error::other)?;
        jobs.push(FleetJob::new(cfg, w.program.clone()).with_base(publish(&mut published, &w)));
        workloads.push(w);
    }
    fresh_dir(state)?;
    Ok(Figures {
        plan,
        workloads,
        jobs,
    })
}

/// `figures-a`: runs the jobs through one fleet, validates every result,
/// and writes the Fig. 6 dataset-A rows (timed).
pub fn figures_pass(
    figures: Figures,
    state: &Path,
    expected: &Expected,
) -> std::io::Result<Iteration> {
    let Figures {
        plan,
        workloads,
        jobs,
    } = figures;
    let mut it = Iteration {
        submitted: plan.len(),
        ..Iteration::default()
    };

    let io0 = proc_io();
    let start = Instant::now();
    let mut cycles = vec![0u64; plan.len()];
    let mut errors = Vec::new();
    let mut latencies = Vec::with_capacity(plan.len());
    Fleet::new().run_each(jobs, |i, machine, result| {
        match result {
            Ok(report) => match (workloads[i].validate)(machine.mem().backing()) {
                Ok(()) => cycles[i] = report.cycles,
                Err(e) => errors.push(format!("{}: validation failed: {e}", plan[i].id())),
            },
            Err(e) => errors.push(format!("{}: {e}", plan[i].id())),
        }
        latencies.push(start.elapsed().as_secs_f64());
    });
    let by_job: HashMap<KernelJob, u64> =
        plan.iter().copied().zip(cycles.iter().copied()).collect();
    let table = fig6_rows(|job| by_job[job]).join("\n");
    std::fs::write(state.join("fig6-A.txt"), table + "\n")?;
    it.wall_s = start.elapsed().as_secs_f64();
    let io1 = proc_io();
    (it.wchar, it.syscw) = (io1.0 - io0.0, io1.1 - io0.1);

    for (job, &c) in plan.iter().zip(&cycles) {
        if c != 0 {
            it.done += 1;
            if let Err(e) = expected.check(&job.id(), c) {
                errors.push(e);
            }
        }
    }
    it.latencies = latencies;
    it.errors = errors;
    Ok(it)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_kernels::{Dataset, Variant};

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_rejected_spec_counts_as_a_failure() {
        let ok = WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4);
        let mut bad = ok.clone();
        bad.cores = 9999;
        let dir = tmp("reject");
        fresh_dir(&dir).unwrap();
        let it = serve_pass(&Input::encode(&[vec![ok, bad]]), &dir, None).unwrap();
        assert_eq!((it.submitted, it.done), (2, 1));
        assert_eq!(done_frac(std::slice::from_ref(&it)), 0.5);
        assert!(
            it.errors.iter().any(|e| e.contains("Rejected")),
            "{:?}",
            it.errors
        );
        assert_eq!(it.latencies.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resubmitted_job_is_served_from_the_cache() {
        let spec = WireJobSpec::kernel("GBC", Dataset::Tiny, Variant::Glsc, (1, 1), 4);
        let dir = tmp("cache");
        fresh_dir(&dir).unwrap();
        let it = serve_pass(
            &Input::encode(&[vec![spec.clone()], vec![spec]]),
            &dir,
            None,
        )
        .unwrap();
        assert!(it.errors.is_empty(), "{:?}", it.errors);
        assert_eq!((it.done, it.cache_served), (2, 1));
        assert!(it.wall_s > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_reader_stamps_each_frame_once() {
        let spec = WireJobSpec::kernel("GBC", Dataset::Tiny, Variant::Glsc, (1, 1), 4);
        let input = Input::encode(&[vec![spec.clone(), spec]]);
        let mut reader = StampReader::new(&input);
        let mut frames = 0;
        while read_message::<Request>(&mut reader).unwrap().is_some() {
            frames += 1;
        }
        assert_eq!(frames, 3);
        assert_eq!(reader.stamps.len(), 3);
    }
}
