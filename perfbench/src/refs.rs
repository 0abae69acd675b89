//! Reference outputs, checked in under `perfbench/refs/`.
//!
//! * `suite.txt`: `ret`, `checksum` and printed output of every suite
//!   program on its train and ref arguments, taken from the unoptimized
//!   program on the tree tier.
//! * `fig7.txt`: the exact `SimStats` of every Figure 7 cell.
//!
//! `perfbench --regen-refs` rewrites both from the current code; a run
//! only ever reads them.

use hlo_sim::SimStats;
use hlo_vm::ExecOutcome;
use std::fmt::Write as _;

const SUITE: &str = include_str!("../refs/suite.txt");
const FIG7: &str = include_str!("../refs/fig7.txt");

/// What a correct run of a suite program must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub ret: i64,
    pub checksum: u64,
    pub output: Vec<i64>,
}

impl Expected {
    pub fn of(out: &ExecOutcome) -> Expected {
        Expected {
            ret: out.ret,
            checksum: out.checksum,
            output: out.output.clone(),
        }
    }

    pub fn matches(&self, out: &ExecOutcome) -> bool {
        *self == Expected::of(out)
    }
}

/// Which argument a reference was taken on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    Train,
    Ref,
}

impl Arg {
    fn tag(self) -> &'static str {
        match self {
            Arg::Train => "train",
            Arg::Ref => "ref",
        }
    }
}

fn suite_line(name: &str, arg: Arg, e: &Expected) -> String {
    let output: Vec<String> = e.output.iter().map(i64::to_string).collect();
    format!(
        "{name} {} {} {:016x} {}",
        arg.tag(),
        e.ret,
        e.checksum,
        if output.is_empty() {
            "-".to_string()
        } else {
            output.join(",")
        }
    )
}

/// The reference for `name` on `arg`.
///
/// # Panics
/// Panics when the checked-in file lacks the entry (regenerate it).
pub fn suite(name: &str, arg: Arg) -> Expected {
    SUITE
        .lines()
        .find_map(|l| {
            let mut w = l.split_whitespace();
            if w.next() != Some(name) || w.next() != Some(arg.tag()) {
                return None;
            }
            let ret = w.next()?.parse().ok()?;
            let checksum = u64::from_str_radix(w.next()?, 16).ok()?;
            let output = match w.next()? {
                "-" => Vec::new(),
                list => list
                    .split(',')
                    .map(|v| v.parse().ok())
                    .collect::<Option<_>>()?,
            };
            Some(Expected {
                ret,
                checksum,
                output,
            })
        })
        .unwrap_or_else(|| panic!("refs/suite.txt has no {} entry for {name}", arg.tag()))
}

fn sim_line(name: &str, config: &str, s: &SimStats) -> String {
    format!(
        "{name} {config} {} {} {} {} {} {} {} {}",
        s.cycles,
        s.retired,
        s.icache_accesses,
        s.icache_misses,
        s.dcache_accesses,
        s.dcache_misses,
        s.branches,
        s.mispredicts
    )
}

/// The exact `SimStats` of one Figure 7 cell.
///
/// # Panics
/// Panics when the checked-in file lacks the cell (regenerate it).
pub fn fig7(name: &str, config: &str) -> SimStats {
    FIG7.lines()
        .find_map(|l| {
            let w: Vec<&str> = l.split_whitespace().collect();
            if w.len() != 10 || w[0] != name || w[1] != config {
                return None;
            }
            let n = |i: usize| w[i].parse::<u64>().ok();
            Some(SimStats {
                cycles: w[2].parse().ok()?,
                retired: n(3)?,
                icache_accesses: n(4)?,
                icache_misses: n(5)?,
                dcache_accesses: n(6)?,
                dcache_misses: n(7)?,
                branches: n(8)?,
                mispredicts: n(9)?,
            })
        })
        .unwrap_or_else(|| panic!("refs/fig7.txt has no cell {name} {config}"))
}

/// Recomputes both reference files into `dir`.
///
/// # Errors
/// Propagates write failures.
pub fn regenerate(dir: &std::path::Path) -> std::io::Result<()> {
    let eo = hlo_vm::ExecOptions::default();
    let mut suite =
        String::from("# program arg ret checksum output  (unoptimized program, tree tier)\n");
    for b in hlo_suite::all_benchmarks() {
        let p = b.compile().expect("suite program compiles");
        for (arg, v) in [(Arg::Train, b.train_arg), (Arg::Ref, b.ref_arg)] {
            let out = hlo_vm::run_program(&p, &[v], &eo).expect("suite program runs");
            let _ = writeln!(suite, "{}", suite_line(b.name, arg, &Expected::of(&out)));
        }
    }
    let mut fig7 = String::from(
        "# program config cycles retired icache_accesses icache_misses \
         dcache_accesses dcache_misses branches mispredicts\n",
    );
    for cell in crate::fig7::cells() {
        // Built by the paper-figure harness, independently of this
        // benchmark's own build path.
        let built = hlo_bench::build(
            &cell.bench,
            hlo_bench::BuildKind::CrossProfile,
            cell.options(),
        );
        let (stats, _) = hlo_sim::simulate(
            &built.program,
            &[cell.bench.ref_arg],
            &eo,
            &hlo_bench::figure7_machine(),
        )
        .expect("figure 7 cell simulates");
        let _ = writeln!(fig7, "{}", sim_line(cell.bench.name, cell.config, &stats));
    }
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("suite.txt"), suite)?;
    std::fs::write(dir.join("fig7.txt"), fig7)
}
