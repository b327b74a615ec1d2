//! Minimal flag parsing for the `serving` bin (no CLI crate — a few
//! optional flags do not justify a dependency).

use iim_neighbors::IndexChoice;

/// Parsed common flags.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Master RNG seed (default 42, the workspace-wide experiment seed).
    pub seed: u64,
    /// Dataset-size override for scalable experiments.
    pub n: Option<usize>,
    /// Quick mode: shrink sweeps for smoke-testing (`--quick`).
    pub quick: bool,
    /// Worker-thread override (`--threads`); `None` leaves the process
    /// default (`IIM_THREADS` / available parallelism) in place.
    pub threads: Option<usize>,
    /// Neighbor-index override (`--index auto|brute|kdtree|vptree`): the
    /// `serving` bin benches that variant beside brute.
    pub index: IndexChoice,
}

impl Args {
    /// Parses `--seed <u64>`, `--n <usize>`, `--threads <usize>`,
    /// `--index <auto|brute|kdtree|vptree>`, `--quick` from `std::env`.
    ///
    /// A `--threads` value is applied immediately via
    /// [`iim_exec::set_default_threads`], so every pool the binary touches
    /// afterwards uses it.
    pub fn parse() -> Self {
        let mut out = Self {
            seed: 42,
            n: None,
            quick: false,
            threads: None,
            index: IndexChoice::Auto,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => {
                    out.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a u64");
                }
                "--n" => {
                    out.n = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--n needs a usize"),
                    );
                }
                "--threads" => {
                    let t = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads needs a positive usize");
                    assert!(t > 0, "--threads needs a positive usize");
                    out.threads = Some(t);
                    iim_exec::set_default_threads(t);
                }
                "--index" => {
                    out.index = it
                        .next()
                        .and_then(|v| IndexChoice::parse(&v))
                        .expect("--index needs one of: auto, brute, kdtree, vptree");
                }
                "--quick" => out.quick = true,
                other => {
                    panic!("unknown flag {other}; supported: --seed --n --threads --index --quick")
                }
            }
        }
        out
    }
}
