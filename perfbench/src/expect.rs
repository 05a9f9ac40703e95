//! The correctness gate: per-job expected simulated cycles, recorded once
//! from the simulator and compiled into the benchmark.
//!
//! `expected_cycles.tsv` holds one `id<TAB>cycles<TAB>name` row per job
//! any workload can submit: the 56 Fig. 6 dataset-A jobs and the whole
//! screening grid. Regenerate it with `perfbench regen-expected`, which
//! refuses to write a table that disagrees with `results/fig6.txt`.

use crate::inputs::{fig6_jobs, screen_grid, KernelJob, FIG6_SHAPES, WIDTH};
use glsc_bench::jobspec::WireJobSpec;
use glsc_kernels::{build_named, Variant, KERNEL_NAMES};
use glsc_sim::{Fleet, FleetJob, MachineConfig};
use std::collections::HashMap;

const TABLE: &str = include_str!("../expected_cycles.tsv");

/// Expected cycles by job id.
pub struct Expected(HashMap<String, u64>);

impl Expected {
    pub fn load() -> Self {
        Self::parse(TABLE).expect("the compiled-in expectation table parses")
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let mut cols = line.split('\t');
            let (Some(id), Some(cycles)) = (cols.next(), cols.next()) else {
                return Err(format!("line {}: expected id and cycles", n + 1));
            };
            let cycles = cycles.parse().map_err(|e| format!("line {}: {e}", n + 1))?;
            if map.insert(id.to_string(), cycles).is_some() {
                return Err(format!("line {}: duplicate id {id}", n + 1));
            }
        }
        Ok(Self(map))
    }

    /// `Ok` when `id` simulated exactly the recorded number of cycles.
    pub fn check(&self, id: &str, cycles: u64) -> Result<(), String> {
        match self.0.get(id) {
            Some(&want) if want == cycles => Ok(()),
            Some(&want) => Err(format!("{id}: {cycles} cycles, expected {want}")),
            None => Err(format!("{id}: no recorded expectation")),
        }
    }

    pub fn get(&self, id: &str) -> Option<u64> {
        self.0.get(id).copied()
    }
}

/// The dataset-A rows of Fig. 6 as `results/fig6.txt` prints them,
/// rendered from per-job cycles.
pub fn fig6_rows(cycles: impl Fn(&KernelJob) -> u64) -> Vec<String> {
    let mut rows = Vec::new();
    for kernel in KERNEL_NAMES {
        let norm = cycles(&KernelJob {
            kernel,
            variant: Variant::Glsc,
            shape: (1, 1),
        });
        for variant in [Variant::Base, Variant::Glsc] {
            let mut row = format!("{:<6} {:>3} {:>6}", kernel, "A", variant.label());
            for shape in FIG6_SHAPES {
                let c = cycles(&KernelJob {
                    kernel,
                    variant,
                    shape,
                });
                row.push_str(&format!("  {:>6.2}x", norm as f64 / c as f64));
            }
            rows.push(row);
        }
    }
    rows
}

/// Checks the recorded Fig. 6 cycles against the committed figure: every
/// dataset-A row must appear in it verbatim.
pub fn cross_check_fig6(expected: &Expected, fig6: &str) -> Result<(), String> {
    let rows = fig6_rows(|job| expected.get(&job.id()).unwrap_or(0));
    for row in rows {
        if !fig6.lines().any(|line| line == row) {
            return Err(format!("row not in results/fig6.txt: {row:?}"));
        }
    }
    Ok(())
}

/// Simulates every job any workload can submit and renders the table.
pub fn regenerate() -> Result<String, String> {
    let specs: Vec<WireJobSpec> = fig6_jobs(&[Variant::Base, Variant::Glsc])
        .iter()
        .map(KernelJob::wire)
        .chain(screen_grid())
        .collect();
    let mut named: Vec<(String, String, MachineConfig)> = Vec::with_capacity(specs.len());
    let mut workloads = Vec::with_capacity(specs.len());
    for spec in &specs {
        let cfg = MachineConfig::paper(spec.cores as usize, spec.tpc as usize, WIDTH);
        let name = spec.kernel_name();
        workloads.push(
            build_named(&name, spec.resolve_dataset(), spec.resolve_variant(), &cfg)
                .map_err(|e| e.to_string())?,
        );
        named.push((spec.id(), name, cfg));
    }
    let jobs = named
        .iter()
        .zip(&workloads)
        .map(|((_, _, cfg), w)| {
            FleetJob::new(cfg.clone(), w.program.clone()).with_base(w.image.publish())
        })
        .collect();
    let mut cycles = vec![None; named.len()];
    let mut errors = Vec::new();
    Fleet::new().run_each(jobs, |i, machine, result| match result {
        Ok(report) => match (workloads[i].validate)(machine.mem().backing()) {
            Ok(()) => cycles[i] = Some(report.cycles),
            Err(e) => errors.push(format!("{}: validation failed: {e}", named[i].0)),
        },
        Err(e) => errors.push(format!("{}: {e}", named[i].0)),
    });
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    let mut table = String::new();
    for ((id, name, _), c) in named.iter().zip(cycles) {
        let c = c.expect("every job without an error reported cycles");
        table.push_str(&format!("{id}\t{c}\t{name}\n"));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_fig6_cycles_match_the_committed_figure() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig6.txt");
        let fig6 = std::fs::read_to_string(path).expect("results/fig6.txt is readable");
        cross_check_fig6(&Expected::load(), &fig6).unwrap();
    }

    #[test]
    fn every_job_a_workload_can_submit_has_an_expectation() {
        let expected = Expected::load();
        for job in fig6_jobs(&[Variant::Base, Variant::Glsc]) {
            assert!(expected.get(&job.id()).is_some(), "{}", job.id());
        }
        for spec in screen_grid() {
            let cycles = expected.get(&spec.id()).expect("grid spec recorded");
            assert!(
                cycles < 20_000,
                "{} runs past the checkpoint cadence",
                spec.id()
            );
        }
    }

    #[test]
    fn a_wrong_cycle_count_fails_the_gate() {
        let expected = Expected::parse("X-A-GLSC-1x1-w4\t100\tX\n").unwrap();
        assert!(expected.check("X-A-GLSC-1x1-w4", 100).is_ok());
        assert!(expected.check("X-A-GLSC-1x1-w4", 101).is_err());
        assert!(expected.check("Y", 100).is_err());
    }
}
