//! Small shared pieces: seeded RNG, order statistics, peak RSS, the
//! benchmark's own spans, metric collection and the bitwise output check.

use halox_engine::PhaseTimer;
use halox_md::{EnergyReport, System, Vec3};
use std::ops::Range;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile of `values` (unsorted); 0.0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the middle pair for even counts); 0.0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Cut `n` samples, in the order they were taken, into consecutive blocks
/// of `len` samples (the remainder joins the last block; fewer than `len`
/// samples make one block), apply `stat` to each block's index range and
/// return the median. A slow spell of the host moves only the blocks it
/// covers, so the figure reads the program's typical speed rather than the
/// host's worst stretch.
pub fn block_median(n: usize, len: usize, stat: impl Fn(Range<usize>) -> f64) -> f64 {
    let blocks = (n / len.max(1)).max(1);
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| stat(b * len..if b + 1 == blocks { n } else { (b + 1) * len }))
        .collect();
    median(&per_block)
}

/// Time the hypervisor has taken from this machine's cores since boot, in
/// ticks of 1/100 s summed over all CPUs: the `steal` column of
/// `/proc/stat`. 0 where the file or the column is missing.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The rounds a run's timing figures are taken from, in time order: the
/// least-stolen rounds (see [`steal_ticks`]), at least half of them and at
/// least enough to hold `min_samples` samples, plus every other round
/// stolen from no more than the last one taken. A round that lost its
/// cores to the hypervisor measures the host, not the program.
pub fn quiet_rounds(steal: &[u64], samples: &[usize], min_samples: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&i| (steal[i], i));
    let (mut taken, mut held) = (0, 0);
    let mut cutoff = 0;
    for &i in &order {
        if 2 * taken >= steal.len() && held >= min_samples {
            break;
        }
        taken += 1;
        held += samples[i];
        cutoff = steal[i];
    }
    (0..steal.len()).filter(|&i| steal[i] <= cutoff).collect()
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Total milliseconds of phase `name` and how many times it ran.
pub fn phase(p: &PhaseTimer, name: &str) -> (f64, u64) {
    p.iter()
        .find(|(n, _, _)| *n == name)
        .map_or((0.0, 0), |(_, d, c)| (ms(d), c))
}

/// Max/mean of per-rank load totals (1.0 = balanced); 0.0 without load.
pub fn load_ratio(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    let max = loads.iter().copied().max().unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    max as f64 * loads.len() as f64 / total as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}

/// One benchmark span: a named interval around a call into a layer.
/// `run` groups the spans of one job or repetition (0 = the benchmark's
/// own set-up and probes); `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

/// In-memory span log, written out once at the end of a traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Open a span nested in the innermost open one; close it with
    /// [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str, run: u64) -> usize {
        let id = self.list.len();
        self.list.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.list[id].end_us = self.now_us();
    }

    /// Run `f` inside a span and return its result with the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, run);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.exit(id);
        (out, secs)
    }
}

/// Metric values in emission order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Operation accounting behind `attempted`, `failed` and `correct`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differed from the serial reference, or never came.
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Share of attempted operations that succeeded (1 - fail ratio).
    pub fn success_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// An attempted operation that failed: it returned an error, its
    /// output differed from the reference, or it ran a fallback path.
    pub fn fail(&mut self, wrong_output: bool, note: String) {
        self.attempted += 1;
        self.failed += 1;
        if wrong_output {
            self.wrong += 1;
        }
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

fn same_vec3(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.x.to_bits() == y.x.to_bits()
                && x.y.to_bits() == y.y.to_bits()
                && x.z.to_bits() == y.z.to_bits()
        })
}

/// Bitwise equality of two trajectories' end states and per-step energy
/// histories — the check every timed run is held to.
pub fn same_output(a: &System, ea: &[EnergyReport], b: &System, eb: &[EnergyReport]) -> bool {
    let energy_bits =
        |e: &EnergyReport| [e.nonbonded, e.bonds, e.angles, e.kinetic, e.virial].map(f64::to_bits);
    ea.len() == eb.len()
        && ea
            .iter()
            .zip(eb)
            .all(|(x, y)| energy_bits(x) == energy_bits(y))
        && same_vec3(&a.positions, &b.positions)
        && same_vec3(&a.velocities, &b.velocities)
}
