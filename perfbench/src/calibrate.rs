//! Host-speed reference: a fixed computation, independent of the program
//! under test, timed before and after every untraced pass.
//!
//! On a host whose cores are shared with other tenants, the same pass
//! can take half again as long while the neighbours are busy, and such
//! phases last minutes, longer than a run; the guest sees no steal time,
//! so CPU time slows with wall time. The reference slows with them, so a
//! pass's time divided by the reference's time around it reads the
//! program more than the neighbours. The end-to-end times are reported in
//! reference-host seconds: the pass time scaled to a host on which one
//! reference computation takes [`NOMINAL_S`]. Raw seconds go on the stamp
//! line beside them.
//!
//! The reference works on registers only. Pointer chases through 1 and
//! 4 MiB tables were tried as well, alone and blended with it; none
//! tracked the workloads' slowdowns better.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference computation is taken to last on the reference
/// host; it sets only the scale of the normalised times.
pub const NOMINAL_S: f64 = 0.016;
/// Reference computations per reading; the reading is their median.
const REPEATS: usize = 7;
/// Generator steps per reference computation (about 16 ms on a 2-vCPU
/// Xeon guest).
const STEPS: u64 = 1 << 22;

/// Integer and branch work on registers only: xorshift steps feeding a
/// multiply or an add, chosen by a data-dependent branch.
fn reference(steps: u64) -> u64 {
    let mut x = 0x1234_5678_9abc_def1u64;
    let mut acc = 0u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = if x & 3 == 0 {
            acc.wrapping_mul(x | 1)
        } else {
            acc.wrapping_add(x ^ i)
        };
    }
    acc
}

/// Seconds one reference computation takes now: the median of
/// [`REPEATS`].
pub fn reading() -> f64 {
    let mut times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            black_box(reference(black_box(STEPS)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPEATS / 2]
}

/// The factor that turns host seconds measured between readings `before`
/// and `after` into reference-host seconds.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_scale_inverts_them() {
        let r = reading();
        assert!(r > 0.0);
        assert!((scale(r, r) * r - NOMINAL_S).abs() < 1e-12);
        assert_eq!(scale(0.008, 0.024), 1.0);
    }
}
