//! Starvation detection: a thread whose store-conditionals keep failing
//! must abort the run with a diagnostic [`SimError::Starvation`] naming
//! it — at the *same cycle* in `run`, `run_naive`, one-cycle `run_for`
//! slices and the fleet, under every arbitration policy, even when
//! backoff delays open fast-forwardable gaps that straddle the detection
//! point.

use glsc_isa::{Program, ProgramBuilder, Reg};
use glsc_sim::{
    ArbitrationPolicy, Fleet, FleetJob, Machine, MachineConfig, RunReport, SimError, SlicedRun,
};

const LINE: i64 = 0x4000;

/// SPMD program for 2 threads: thread 0 hammers plain stores at `LINE`
/// (each one killing any reservation there); thread 1 loops `ll`/`sc` on
/// the same word, ignoring the `sc` result. With the store stream
/// running, thread 1's reservation is cleared before nearly every `sc`.
/// `delay` inserts `divu` chains (10-cycle FU latency) in both loops so
/// the cores stall long enough for fast-forward jumps between issues.
fn duel_program(iters: i64, delay: bool) -> Program {
    let mut b = ProgramBuilder::new();
    let r = Reg::new;
    let (r_addr, r_it, r_v, r_ok, r_d) = (r(2), r(3), r(4), r(5), r(6));
    b.li(r_addr, LINE);
    b.li(r_it, 0);
    b.li(r_d, 1_000_000);
    let victim = b.label();
    let done = b.label();
    b.bne(r(0), 0, victim);

    // Thread 0: the aggressor store loop.
    let agg_top = b.here();
    b.st(r_it, r_addr, 0);
    if delay {
        b.divu(r_d, r_d, 1);
        b.divu(r_d, r_d, 1);
    }
    b.addi(r_it, r_it, 1);
    b.blt(r_it, iters, agg_top);
    b.jmp(done);

    // Thread 1: the victim ll/sc loop.
    b.bind(victim).unwrap();
    let vic_top = b.here();
    b.ll(r_v, r_addr, 0);
    b.addi(r_v, r_v, 1);
    b.sc(r_ok, r_v, r_addr, 0);
    if delay {
        b.divu(r_d, r_d, 1);
    }
    b.addi(r_it, r_it, 1);
    b.blt(r_it, iters, vic_top);

    b.bind(done).unwrap();
    b.halt();
    b.build().unwrap()
}

/// Runs `m` to the end through `run_for` slices of one cycle each.
fn run_one_cycle_slices(m: &mut Machine) -> Result<RunReport, SimError> {
    let mut run = SlicedRun::new(m);
    loop {
        if let Some(report) = m.run_for(&mut run, 1)? {
            return Ok(report);
        }
    }
}

fn duel_cfg(threshold: u64, policy: ArbitrationPolicy) -> MachineConfig {
    MachineConfig::paper(2, 1, 1)
        .with_starvation_threshold(Some(threshold))
        .with_arbitration(policy)
}

#[test]
fn starvation_fires_and_names_the_victim() {
    let mut m = Machine::new(duel_cfg(8, ArbitrationPolicy::Free));
    m.load_program(duel_program(50_000, false));
    match m.run() {
        Err(SimError::Starvation {
            cycle,
            gid,
            streak,
            failures,
            ..
        }) => {
            assert_eq!(gid, 1, "the ll/sc thread is the starved one");
            assert!(streak >= 8, "streak {streak} below threshold");
            assert!(cycle > 0);
            assert_eq!(failures.len(), 2);
            assert!(failures[1] >= 8);
            assert_eq!(failures[0], 0, "the store thread never attempts sc");
        }
        other => panic!("expected starvation, got {other:?}"),
    }
    // The diagnostic names the thread, the streak, and the fairness index.
    let err = {
        let mut m = Machine::new(duel_cfg(8, ArbitrationPolicy::Free));
        m.load_program(duel_program(50_000, false));
        m.run().unwrap_err()
    };
    let text = err.to_string();
    assert!(text.contains("starvation: thread 1"), "display: {text}");
    assert!(text.contains("Jain fairness"), "display: {text}");
}

#[test]
fn high_threshold_lets_the_duel_finish() {
    // Same duel, but the victim's streaks stay below the threshold long
    // enough for the aggressor to halt; afterwards every sc succeeds.
    let mut m = Machine::new(duel_cfg(1_000_000, ArbitrationPolicy::Free));
    m.load_program(duel_program(300, false));
    let report = m.run().expect("finishes below the threshold");
    assert!(report.max_sc_failure_streak() > 0, "duel never contended");
}

#[test]
fn uncontended_sc_never_trips_the_detector() {
    // One thread, threshold 1: a single natural failure would abort, so a
    // clean pass proves uncontended ll/sc keeps the streak at zero.
    let mut b = ProgramBuilder::new();
    let r = Reg::new;
    let (r_addr, r_it, r_v, r_ok) = (r(2), r(3), r(4), r(5));
    b.li(r_addr, LINE);
    b.li(r_it, 0);
    let top = b.here();
    b.ll(r_v, r_addr, 0);
    b.addi(r_v, r_v, 1);
    b.sc(r_ok, r_v, r_addr, 0);
    b.beq(r_ok, 0, top);
    b.addi(r_it, r_it, 1);
    b.blt(r_it, 50, top);
    b.halt();
    let cfg = MachineConfig::paper(1, 1, 1).with_starvation_threshold(Some(1));
    let mut m = Machine::new(cfg);
    m.load_program(b.build().unwrap());
    m.run().expect("uncontended sc always succeeds");
}

/// The satellite regression: with an arbitration window in play and
/// `divu` delays opening fast-forwardable gaps that straddle the
/// detection deadline, `run`, `run_naive`, one-cycle `run_for` slices and
/// the fleet must report the *identical* starvation error — same cycle,
/// same thread, same census.
#[test]
fn run_and_run_naive_starve_at_the_same_cycle() {
    let mut fleet_jobs = Vec::new();
    let mut expected = Vec::new();
    for policy in [
        ArbitrationPolicy::Free,
        ArbitrationPolicy::NackHoldoff { window: 64 },
        ArbitrationPolicy::AgedPriority,
    ] {
        for delay in [false, true] {
            let mut fast = Machine::new(duel_cfg(6, policy));
            fast.load_program(duel_program(50_000, delay));
            let fast_err = fast.run().expect_err("fast path must starve");

            let mut naive = Machine::new(duel_cfg(6, policy));
            naive.load_program(duel_program(50_000, delay));
            let naive_err = naive.run_naive().expect_err("naive path must starve");

            let mut sliced = Machine::new(duel_cfg(6, policy));
            sliced.load_program(duel_program(50_000, delay));
            let sliced_err = run_one_cycle_slices(&mut sliced).expect_err("slices must starve");

            assert_eq!(
                fast_err, naive_err,
                "run/run_naive diverged ({policy:?}, delay={delay})"
            );
            assert_eq!(
                fast_err, sliced_err,
                "run/run_for diverged ({policy:?}, delay={delay})"
            );
            assert!(
                matches!(fast_err, SimError::Starvation { gid: 1, .. }),
                "unexpected error ({policy:?}, delay={delay}): {fast_err:?}"
            );
            fleet_jobs.push(FleetJob::new(
                duel_cfg(6, policy),
                duel_program(50_000, delay),
            ));
            expected.push((format!("{policy:?}, delay={delay}"), fast_err));
        }
    }
    let mut finished = 0;
    Fleet::new()
        .with_width(2)
        .with_quantum(5)
        .run_each(fleet_jobs, |i, _, result| {
            let (name, fast_err) = &expected[i];
            let err = result.expect_err("fleet job must starve");
            assert_eq!(&err, fast_err, "run/fleet diverged ({name})");
            finished += 1;
        });
    assert_eq!(finished, expected.len());
}
