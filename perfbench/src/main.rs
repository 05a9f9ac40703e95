//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//! perfbench regen-expected <expected_cycles.tsv> <results/fig6.txt>
//! ```
//!
//! With `--trace 0` it repeats untraced passes of the workload for
//! `--seconds` and prints the end-to-end metrics, its times in
//! reference-host seconds (see [`calibrate`]); with `--trace 1` it
//! repeats (untraced pass, traced replay) pairs and prints the per-layer
//! metrics. Every pass is checked against the recorded cycle counts; an
//! incorrect run exits 1. The last stdout line is the result object; the
//! line before it records the run's stamp and sample counts.

mod calibrate;
mod expect;
mod inputs;
mod measure;
mod replay;
mod trace;

use expect::Expected;
use inputs::{iteration_seed, serve_plan, Workload};
use measure::{
    done_frac, figures_pass, figures_setup, fresh_dir, peak_rss_mb, serve_pass, Input, Iteration,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Untraced passes per run, at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Latency samples per untraced run, at least: enough that ten lie
/// beyond the 95th percentile.
const MIN_LATENCY_SAMPLES: usize = 200;
/// Set-ups per pass; the pass reports their median time.
const SETUP_REPEATS: usize = 10;
/// Largest share of the replay's wall time that may fall outside every
/// layer span (the replay's own bookkeeping). Above it the split is not
/// trusted and the traced run fails.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// End-to-end metrics, measured with tracing off: name and unit. The
/// `_norm_s` times are in reference-host seconds.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_norm_s", "s"),
    ("setup_s", "s"),
    ("job_p50_norm_s", "s"),
    ("job_p95_norm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"),
    ("done_frac", "ratio"),
];

/// How a per-layer metric is summarised over a run's pairs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A host-time reading: the median over pairs.
    Time,
    /// A count that repeats exactly for a seed: the first pair's value.
    Count,
}

/// The per-layer metrics of the traced run: name, unit, summary.
const PER_LAYER: [(&str, &str, Kind); 60] = [
    ("kernels.build_s", "s", Kind::Time),
    ("kernels.builds", "count", Kind::Count),
    ("sim.build_s", "s", Kind::Time),
    ("sim.builds", "count", Kind::Count),
    ("sim.reset_s", "s", Kind::Time),
    ("sim.resets", "count", Kind::Count),
    ("fleet.step_s", "s", Kind::Time),
    ("fleet.ns_per_cycle", "ns", Kind::Time),
    ("fleet.pauses", "count", Kind::Count),
    ("fleet.slot_wait_p50_s", "s", Kind::Time),
    ("sim.cycles", "count", Kind::Count),
    ("core.instructions", "count", Kind::Count),
    ("core.mem_stall_cycles", "count", Kind::Count),
    ("gsu.line_requests", "count", Kind::Count),
    ("gsu.sc_elem_success_ratio", "ratio", Kind::Count),
    ("mem.l1_misses", "count", Kind::Count),
    ("mem.l2_misses", "count", Kind::Count),
    ("mem.sc_success_ratio", "ratio", Kind::Count),
    ("noc.msgs", "count", Kind::Count),
    ("noc.queue_cycles", "count", Kind::Count),
    ("snapshot.capture_s", "s/op", Kind::Time),
    ("snapshot.encode_s", "s/op", Kind::Time),
    ("snapshot.decode_s", "s/op", Kind::Time),
    ("snapshot.restore_s", "s/op", Kind::Time),
    ("snapshot.count", "count", Kind::Count),
    ("snapshot.bytes", "bytes", Kind::Count),
    ("snapshot.restore_vs_rebuild", "ratio", Kind::Time),
    ("checkpoint.write_s", "s/op", Kind::Time),
    ("journal.append_s", "s/op", Kind::Time),
    ("journal.appends", "count", Kind::Count),
    ("journal.bytes", "bytes", Kind::Count),
    ("journal.records", "count", Kind::Count),
    ("store.save_s", "s/op", Kind::Time),
    ("store.load_s", "s/op", Kind::Time),
    ("store.hits", "count", Kind::Count),
    ("store.hit_ratio", "ratio", Kind::Count),
    ("proto.encode_s", "s/op", Kind::Time),
    ("proto.decode_s", "s/op", Kind::Time),
    ("proto.frames", "count", Kind::Count),
    ("proto.bytes", "bytes", Kind::Count),
    ("queue.offer_s", "s/op", Kind::Time),
    ("queue.max_depth", "count", Kind::Count),
    ("queue.shed", "count", Kind::Count),
    ("serve.residual_s", "s", Kind::Time),
    ("serve.write_syscalls", "count", Kind::Count),
    ("trace.overhead_frac", "ratio", Kind::Time),
    ("trace.coverage", "ratio", Kind::Time),
    ("trace.replay_s", "s", Kind::Time),
    ("kernels.self_share", "ratio", Kind::Time),
    ("sim.self_share", "ratio", Kind::Time),
    ("fleet.self_share", "ratio", Kind::Time),
    ("snapshot.self_share", "ratio", Kind::Time),
    ("checkpoint.self_share", "ratio", Kind::Time),
    ("journal.self_share", "ratio", Kind::Time),
    ("store.self_share", "ratio", Kind::Time),
    ("proto.self_share", "ratio", Kind::Time),
    ("queue.self_share", "ratio", Kind::Time),
    ("bench.self_share", "ratio", Kind::Time),
    ("trace.spans", "count", Kind::Count),
    ("trace.pairs", "count", Kind::Count),
];

/// The layers whose self time the traced run reports, as span-name
/// prefixes. `bench` is the replay's own bookkeeping.
const LAYERS: [&str; 10] = [
    "kernels",
    "sim",
    "fleet",
    "snapshot",
    "checkpoint",
    "journal",
    "store",
    "proto",
    "queue",
    "bench",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace", "--work"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag, value);
    }
    let get = |f: &str| flags.get(f).copied().ok_or_else(|| format!("missing {f}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace must be 0 or 1, not {v}")),
        },
        work: PathBuf::from(flags.get("--work").copied().unwrap_or("perfbench-work")),
    })
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// median time.
fn timed_setup<T>(mut setup: impl FnMut() -> std::io::Result<T>) -> std::io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// One untraced pass of `workload` in `state`.
fn pass(
    workload: Workload,
    seed: u64,
    state: &Path,
    expected: &Expected,
) -> std::io::Result<Iteration> {
    let it = match workload {
        Workload::FiguresA => {
            let (figures, setup_s) = timed_setup(|| figures_setup(seed, state))?;
            figures_pass(figures, state, expected).map(|it| Iteration { setup_s, ..it })
        }
        _ => {
            let (input, setup_s) = timed_setup(|| {
                let input = Input::encode(&serve_plan(workload, seed));
                fresh_dir(state).map(|()| input)
            })?;
            serve_pass(&input, state, Some(expected)).map(|it| Iteration { setup_s, ..it })
        }
    };
    let _ = std::fs::remove_dir_all(state);
    it
}

/// What a run prints.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    stamp: BTreeMap<&'static str, String>,
}

fn untraced(args: &Args, expected: &Expected) -> std::io::Result<Outcome> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let state = args.work.join(format!("{}-state", args.workload.name()));
    let mut passes = Vec::new();
    // Per pass: the factor from host seconds to reference-host seconds.
    let mut scales = Vec::new();
    let mut samples = 0;
    while passes.len() < MIN_PASSES || samples < MIN_LATENCY_SAMPLES || Instant::now() < deadline {
        let seed = iteration_seed(args.seed, passes.len());
        let before = calibrate::reading();
        let p = pass(args.workload, seed, &state, expected)?;
        scales.push(calibrate::scale(before, calibrate::reading()));
        samples += p.latencies.len();
        let incorrect = !p.errors.is_empty();
        passes.push(p);
        if incorrect {
            break;
        }
    }
    let col = |f: fn(&Iteration) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let walls: Vec<f64> = passes.iter().zip(&scales).map(|(p, k)| p.wall_s * k).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .zip(&scales)
        .flat_map(|(p, &k)| p.latencies.iter().map(move |l| l * k))
        .collect();
    let submitted: usize = passes.iter().map(|p| p.submitted).sum();
    let done: usize = passes.iter().map(|p| p.done).sum();
    let p95_rank = ((0.95 * latencies.len() as f64).ceil() as usize).max(1);
    let values = [
        median(&walls),
        median(&col(|p| p.setup_s)),
        median(&latencies),
        percentile(&latencies, 0.95),
        peak_rss_mb(),
        median(&col(|p| p.wchar as f64)) / 1e6,
        done_frac(&passes),
    ];
    let mut stamp = BTreeMap::new();
    stamp.insert("passes", passes.len().to_string());
    let list = |xs: Vec<f64>| {
        let xs: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        format!("[{}]", xs.join(", "))
    };
    stamp.insert("wall_s", median(&col(|p| p.wall_s)).to_string());
    stamp.insert("pass_wall_s", list(col(|p| p.wall_s)));
    stamp.insert("pass_scale", list(scales));
    stamp.insert("latency_samples", latencies.len().to_string());
    stamp.insert(
        "samples_beyond_p95",
        (latencies.len() - p95_rank.min(latencies.len())).to_string(),
    );
    Ok(Outcome {
        attempted: submitted,
        failed: submitted - done,
        errors: passes.into_iter().flat_map(|p| p.errors).collect(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        stamp,
    })
}

/// One (untraced pass, traced replay) pair: the per-layer metrics, or
/// the reasons the pair is not trustworthy.
fn traced_pair(
    args: &Args,
    seed: u64,
    pair: usize,
    expected: &Expected,
) -> std::io::Result<(BTreeMap<&'static str, f64>, usize, Vec<String>)> {
    let w = args.workload;
    let real = pass(
        w,
        seed,
        &args.work.join(format!("{}-state", w.name())),
        expected,
    )?;
    let replay_dir = args.work.join(format!("{}-replay", w.name()));
    trace::start();
    let (out, quantum) = match w {
        Workload::FiguresA => (
            replay::figures_replay(seed, &replay_dir, expected),
            replay::FLEET_QUANTUM,
        ),
        _ => {
            let input = trace::span("bench.setup", || Input::encode(&serve_plan(w, seed)));
            (
                replay::serve_replay(&input, &replay_dir, expected),
                replay::SERVE_QUANTUM,
            )
        }
    };
    let probe_dir = args.work.join(format!("{}-probe", w.name()));
    let probed = out.as_ref().map_or(Ok(()), |out| {
        trace::span("probe.all", || {
            replay::probe(&out.probe_jobs, quantum, &probe_dir)
        })
    });

    let tr = trace::finish();
    let _ = std::fs::remove_dir_all(&replay_dir);
    let _ = std::fs::remove_dir_all(&probe_dir);
    let out = out?;
    probed?;
    tr.write_tsv(&args.work.join(format!(
        "spans-{}-seed{}-pair{pair}.tsv",
        w.name(),
        args.seed
    )))?;

    let mut errors = real.errors;
    errors.extend(out.errors.iter().cloned());
    let fidelity = [
        (
            "journal appends vs records",
            out.journal_appends,
            real.journal_records,
        ),
        ("checkpoints", out.checkpoints, real.checkpoints),
        ("cache-served results", out.store_hits, real.cache_served),
        ("jobs done", out.done, real.done),
    ];
    for (what, replayed, seen) in fidelity {
        if replayed != seen {
            errors.push(format!(
                "replay fidelity: {what}: replay {replayed}, real run {seen}"
            ));
        }
    }
    if let Err(e) = tr.check_nesting() {
        errors.push(e);
    }
    let root = tr
        .find_last("bench.replay")
        .expect("the replay opens its root span");
    let replay_wall = tr.spans[root].dur_s();
    let selfs = tr.layer_self_times(root);
    let attributed: f64 = selfs
        .iter()
        .filter(|(l, _)| **l != "bench")
        .map(|(_, s)| s)
        .sum();
    let coverage = ratio(attributed, replay_wall);
    if 1.0 - coverage > MAX_UNATTRIBUTED {
        errors.push(format!(
            "span accounting: layer self times cover {:.1}% of the replay, need {:.0}%",
            100.0 * coverage,
            100.0 * (1.0 - MAX_UNATTRIBUTED)
        ));
    }
    for layer in selfs.keys() {
        if !LAYERS.contains(layer) {
            errors.push(format!("span accounting: unknown layer {layer}"));
        }
    }

    let total = |name: &str| tr.total(name).0;
    let count = |name: &str| tr.total(name).1 as f64;
    let op = |name: &str| median(&tr.durations(name));
    // Median seconds per call: over the workload's own calls, or over the
    // probe's when the workload makes none.
    let per_call = |name: &str| {
        let own = tr.durations(name);
        let samples = if own.is_empty() {
            tr.durations(&format!("probe.{name}"))
        } else {
            own
        };
        median(&samples)
    };
    let wk = &out.work;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |k: &'static str, v: f64| {
        m.insert(k, v);
    };
    set("kernels.build_s", total("kernels.build"));
    set("kernels.builds", count("kernels.build"));
    set("sim.build_s", total("sim.build"));
    set("sim.builds", count("sim.build"));
    set("sim.reset_s", total("sim.reset"));
    set("sim.resets", count("sim.reset"));
    set("fleet.step_s", total("fleet.step"));
    set(
        "fleet.ns_per_cycle",
        ratio(total("fleet.step") * 1e9, wk.cycles as f64),
    );
    set("fleet.pauses", out.pauses as f64);
    set("fleet.slot_wait_p50_s", median(&out.slot_waits));
    set("sim.cycles", wk.cycles as f64);
    set("core.instructions", wk.instructions as f64);
    set("core.mem_stall_cycles", wk.mem_stall_cycles as f64);
    set("gsu.line_requests", wk.gsu_line_requests as f64);
    set(
        "gsu.sc_elem_success_ratio",
        ratio(
            wk.gsu_sc_elem_successes as f64,
            wk.gsu_sc_elem_attempts as f64,
        ),
    );
    set("mem.l1_misses", wk.l1_misses as f64);
    set("mem.l2_misses", wk.l2_misses as f64);
    set(
        "mem.sc_success_ratio",
        ratio(
            wk.sc_successes as f64,
            (wk.sc_successes + wk.sc_failures) as f64,
        ),
    );
    set("noc.msgs", wk.noc_msgs as f64);
    set("noc.queue_cycles", wk.noc_queue_cycles as f64);
    set("snapshot.capture_s", op("snapshot.capture"));
    set("snapshot.encode_s", op("snapshot.encode"));
    set("snapshot.decode_s", op("snapshot.decode"));
    set("snapshot.restore_s", op("snapshot.restore"));
    set("snapshot.count", out.checkpoints as f64);
    set("snapshot.bytes", out.snapshot_bytes as f64);
    set(
        "snapshot.restore_vs_rebuild",
        ratio(total("snapshot.restore"), total("probe.rebuild")),
    );
    set("checkpoint.write_s", per_call("checkpoint.write"));
    set("journal.append_s", per_call("journal.append"));
    set("journal.appends", out.journal_appends as f64);
    set("journal.bytes", out.journal_bytes as f64);
    set("journal.records", real.journal_records as f64);
    set("store.save_s", per_call("store.save"));
    set("store.load_s", per_call("store.load"));
    set("store.hits", out.store_hits as f64);
    set(
        "store.hit_ratio",
        ratio(out.store_hits as f64, out.done as f64),
    );
    set("proto.encode_s", per_call("proto.encode"));
    set("proto.decode_s", per_call("proto.decode"));
    set("proto.frames", out.frames as f64);
    set("proto.bytes", out.frame_bytes as f64);
    set("queue.offer_s", per_call("queue.offer"));
    set("queue.max_depth", out.queue_max_depth as f64);
    set("queue.shed", out.queue_shed as f64);
    set("serve.residual_s", real.wall_s - attributed);
    set("serve.write_syscalls", real.syscw as f64);
    set("trace.overhead_frac", ratio(replay_wall, real.wall_s) - 1.0);
    set("trace.coverage", coverage);
    set("trace.replay_s", replay_wall);
    for layer in LAYERS {
        let name = PER_LAYER
            .iter()
            .find(|(n, _, _)| n.strip_suffix(".self_share") == Some(layer))
            .expect("every layer has a self-time share")
            .0;
        set(
            name,
            ratio(selfs.get(layer).copied().unwrap_or(0.0), replay_wall),
        );
    }
    set("trace.spans", tr.spans.len() as f64);
    Ok((m, real.submitted + out.submitted, errors))
}

fn traced(args: &Args, expected: &Expected) -> std::io::Result<Outcome> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut pairs = Vec::new();
    let mut attempted = 0;
    let mut errors = Vec::new();
    while pairs.is_empty() || Instant::now() < deadline {
        let seed = iteration_seed(args.seed, pairs.len());
        let (m, n, e) = traced_pair(args, seed, pairs.len(), expected)?;
        attempted += n;
        errors.extend(e);
        pairs.push(m);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, kind)| {
            let value = match (name, kind) {
                ("trace.pairs", _) => pairs.len() as f64,
                (_, Kind::Count) => pairs[0][name],
                (_, Kind::Time) => median(&pairs.iter().map(|m| m[name]).collect::<Vec<_>>()),
            };
            (name, unit, value)
        })
        .collect();
    let mut stamp = BTreeMap::new();
    stamp.insert("pairs", pairs.len().to_string());
    Ok(Outcome {
        attempted,
        failed: usize::from(!errors.is_empty()),
        errors,
        metrics,
        stamp,
    })
}

/// The filesystem type of the mount holding `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let (_, at, fs) = (cols.next()?, cols.next()?, cols.next()?);
            dir.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run(args: &Args) -> std::io::Result<bool> {
    std::fs::create_dir_all(&args.work)?;
    let expected = Expected::load();
    let outcome = if args.trace {
        traced(args, &expected)?
    } else {
        untraced(args, &expected)?
    };
    for e in &outcome.errors {
        eprintln!("perfbench: INCORRECT: {e}");
    }
    let correct = outcome.errors.is_empty();

    let mut stamp = outcome.stamp;
    stamp.insert("workload", json_str(args.workload.name()));
    stamp.insert("seed", args.seed.to_string());
    stamp.insert("trace", u8::from(args.trace).to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    stamp.insert("nproc", nproc.to_string());
    stamp.insert("state_fs", json_str(&fs_type(&args.work)));
    stamp.insert("rustc", json_str(&command_line("rustc", &["--version"])));
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    stamp.insert("commit", json_str(&commit));
    let stamp: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"stamp\": {{{}}}}}", stamp.join(", "));

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed.max(usize::from(!correct)),
        metrics.join(", ")
    );
    Ok(correct)
}

fn regen_expected(out: &str, fig6: &str) -> Result<(), String> {
    let table = expect::regenerate()?;
    let fig6 = std::fs::read_to_string(fig6).map_err(|e| format!("{fig6}: {e}"))?;
    expect::cross_check_fig6(&Expected::parse(&table)?, &fig6)?;
    std::fs::write(out, table).map_err(|e| format!("{out}: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("regen-expected") {
        let [_, out, fig6] = &argv[..] else {
            eprintln!("usage: perfbench regen-expected <expected_cycles.tsv> <results/fig6.txt>");
            std::process::exit(2);
        };
        if let Err(e) = regen_expected(out, fig6) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work <dir>]");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..]
                .split('"')
                .next()
                .expect("string value")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), own(&END_TO_END));
        let layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
        assert_eq!(declared(&json, "per_layer"), own(&layer));
        let workloads: Vec<String> = declared_names(&json, "workloads");
        let ours: Vec<String> = Workload::BENCHMARKED.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    fn declared_names(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("string value").to_string())
            .collect()
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&xs), 10.0);
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
