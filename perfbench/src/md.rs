//! The engine workloads, `md-bulk` and `md-halo`: relaxed grappa systems
//! stepped by the threaded executor on the fused transport.
//!
//! A timed "job" is one neighbour-search segment from a relaxed start. A
//! run draws `systems` start systems from its seed and runs their jobs in
//! turn (one round = one job per system), so a run's figures average over
//! several inputs rather than hang on one. Short jobs make short rounds,
//! which lets the timing figures skip the rounds the host stole from (see
//! `quiet_rounds`).
//!
//! Rounds repeat until the timed window is used up; each job is checked
//! bitwise against one serial-executor run of the same steps on the same
//! system, so every step the window measured is verified while the
//! references cost one round. Each system keeps its engine across jobs
//! (only its system is reset), as a long run reuses it across segments.

use crate::config::{describe, engine_config, serial, GRID};
use crate::service::{closed_loop, Request};
use crate::util::{
    block_median, load_ratio, median, ms, peak_rss_mb, percentile, phase, quiet_rounds,
    same_output, steal_ticks, Metrics, Rng, Spans, Tally,
};
use crate::{probes, Report, P50_BLOCK, P90_BLOCK, SETUPS};
use halox_dd::DdGrid;
use halox_engine::{Engine, EngineConfig, PhaseTimer};
use halox_md::{steepest_descent, EnergyReport, GrappaBuilder, MinimizeOptions, System};
use halox_serve::{JobService, JobSpec, Priority, ServeConfig};
use halox_trace::{Payload, Recorder, Trace};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const NSTLIST: usize = 10;
const TEMPERATURE: f32 = 300.0;
/// Events one traced job may record: a job records about 32 per step.
const TRACE_CAPACITY: usize = 1 << 13;

pub struct MdWorkload {
    pub atoms: usize,
    /// Start systems per run.
    pub systems: usize,
    /// Pair-list builds the traced run times in its probe.
    pub probe_builds: usize,
}

/// ~6k atoms per rank: pair search and non-bonded dominate.
pub const MD_BULK: MdWorkload = MdWorkload {
    atoms: 12_000,
    systems: 1,
    probe_builds: 3,
};

/// ~500 atoms per rank: the strong-scaling limit, where per-segment and
/// per-step overheads outside the kernels show.
pub const MD_HALO: MdWorkload = MdWorkload {
    atoms: 1_000,
    systems: 4,
    probe_builds: 20,
};

/// A relaxed start system drawn from `rng`, and the minimisation time.
fn relaxed(atoms: usize, rng: &mut Rng, spans: &mut Spans) -> (System, f64) {
    let mut sys = GrappaBuilder::new(atoms)
        .seed(rng.next_u64())
        .temperature(TEMPERATURE)
        .build();
    let (_, secs) = spans.time("md.minimize", 0, || {
        steepest_descent(&mut sys, MinimizeOptions::default())
    });
    (sys, secs)
}

/// Accumulated results of the jobs of one kind (traced or untraced).
#[derive(Default)]
struct Jobs {
    steps: usize,
    wall_s: f64,
    walls_ms: Vec<f64>,
    segment_ms: Vec<f64>,
    phases: PhaseTimer,
    rank_loads: Vec<u64>,
    retries: usize,
    downgrades: usize,
    wait_us: u64,
    events: usize,
    dropped: usize,
    rounds: Vec<Round>,
}

/// One job on each system: where its samples sit in `Jobs`, and the host
/// steal ticks it saw.
struct Round {
    steal_at_start: u64,
    steal: u64,
    walls: Range<usize>,
    segments: Range<usize>,
}

impl Jobs {
    fn steps_per_s(&self) -> f64 {
        self.steps as f64 / self.wall_s
    }
}

pub fn run(w: &MdWorkload, seed: u64, seconds: f64, traced: bool, scratch: &Path) -> Report {
    let mut spans = Spans::new(Instant::now());
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut lines = Vec::new();
    let cfg = engine_config(NSTLIST, None);
    let job_steps = NSTLIST;
    let ranks: usize = GRID.iter().product();

    // Set-up, repeated for a steady median: for each system build,
    // minimise, construct the engine and run one untimed warm-up segment.
    // The last set-up is kept.
    let mut setup_s = Vec::new();
    let mut minimize_s = Vec::new();
    let mut kept: Option<(Vec<System>, Vec<Engine>)> = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        let id = spans.enter("setup", 0);
        let t = Instant::now();
        let mut rng = Rng::new(seed);
        let mut starts = Vec::new();
        let mut engines = Vec::new();
        for _ in 0..w.systems {
            let (start, min_s) = relaxed(w.atoms, &mut rng, &mut spans);
            let (mut engine, _) = spans.time("engine.new", 0, || {
                Engine::new(start.clone(), DdGrid::new(GRID), cfg.clone())
            });
            let (warm, _) = spans.time("engine.warmup", 0, || engine.try_run(NSTLIST));
            minimize_s.push(min_s);
            match warm {
                Ok(_) => tally.ok(),
                Err(e) => tally.fail(false, format!("warm-up segment: {e}")),
            }
            starts.push(start);
            engines.push(engine);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        spans.exit(id);
        if let Some((prev, _)) = &kept {
            if *prev != starts {
                tally.fail(true, "set-up is not deterministic for one seed".into());
            }
        }
        kept = Some((starts, engines));
    }
    let (starts, mut engines) = kept.expect("at least one set-up");
    lines.push(format!("config: {}", describe(&cfg)));
    lines.push(format!(
        "systems: {} of {} atoms, seed {seed}, {job_steps} steps per job",
        starts.len(),
        starts[0].n_atoms()
    ));

    // The serial executor on the same inputs: the correctness reference
    // for every timed job, and the single-thread baseline rate.
    let mut references: Vec<Option<(System, Vec<EnergyReport>)>> = Vec::new();
    let mut ref_s = 0.0;
    for start in &starts {
        let mut reference_engine = Engine::new(start.clone(), DdGrid::new(GRID), serial(&cfg));
        let (reference, secs) = spans.time("reference.serial", 0, || {
            reference_engine.try_run(job_steps)
        });
        ref_s += secs;
        references.push(match reference {
            Ok(stats) => {
                tally.ok();
                Some((reference_engine.system, stats.energies))
            }
            Err(e) => {
                tally.fail(true, format!("serial reference: {e}"));
                None
            }
        });
    }

    // Timed window, in whole rounds. In the traced run, untraced and traced
    // rounds alternate so drift cancels out of the tracing overhead.
    let mut plain = Jobs::default();
    let mut with_trace = Jobs::default();
    let mut last_trace: Option<(Trace, u64)> = None;
    let mut job = 0u64;
    let window = spans.enter("timed", 0);
    while plain.wall_s + with_trace.wall_s < seconds || !(job as usize).is_multiple_of(w.systems) {
        let k = job as usize % w.systems;
        let record = traced && (job as usize / w.systems) % 2 == 1;
        job += 1;
        let (engine, start, reference) = (&mut engines[k], &starts[k], &references[k]);
        engine.system = start.clone();
        let rec = record.then(|| Arc::new(Recorder::with_capacity(TRACE_CAPACITY)));
        let rec_offset_us = rec.as_ref().map_or(0, |r| {
            (spans.origin().elapsed().as_micros() as u64).saturating_sub(r.now_us())
        });
        engine.config.trace = rec.clone();
        let acc = if record { &mut with_trace } else { &mut plain };
        if k == 0 {
            acc.rounds.push(Round {
                steal_at_start: steal_ticks(),
                steal: 0,
                walls: acc.walls_ms.len()..acc.walls_ms.len(),
                segments: acc.segment_ms.len()..acc.segment_ms.len(),
            });
        }
        let id = spans.enter("job", job);
        let t = Instant::now();
        let mut last = t;
        let result = engine.try_run_with_observer(job_steps, |_, _| {
            let now = Instant::now();
            acc.segment_ms.push(ms(now.duration_since(last)));
            last = now;
        });
        let wall = t.elapsed().as_secs_f64();
        spans.exit(id);
        engine.config.trace = None;
        acc.steps += job_steps;
        acc.wall_s += wall;
        acc.walls_ms.push(wall * 1e3);
        let round = acc
            .rounds
            .last_mut()
            .expect("a round opens with its first job");
        round.walls.end = acc.walls_ms.len();
        round.segments.end = acc.segment_ms.len();
        round.steal = steal_ticks() - round.steal_at_start;
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                tally.fail(true, format!("job {job}: {e}"));
                continue;
            }
        };
        acc.phases.merge(&stats.phases);
        if acc.rank_loads.len() != stats.rank_loads.len() {
            acc.rank_loads = vec![0; stats.rank_loads.len()];
        }
        for (a, l) in acc.rank_loads.iter_mut().zip(&stats.rank_loads) {
            *a += l;
        }
        acc.retries += stats.retries;
        acc.downgrades += stats.downgrades.len();
        if let Some(rec) = rec {
            let trace = rec.drain();
            acc.events += trace.events.len();
            acc.dropped += trace.dropped;
            acc.wait_us += trace
                .events
                .iter()
                .filter(|e| matches!(e.payload, Payload::SignalWaitDone { .. }))
                .map(|e| e.dur_us)
                .sum::<u64>();
            last_trace = Some((trace, rec_offset_us));
        }
        let matches = reference
            .as_ref()
            .is_some_and(|(sys, en)| same_output(&engine.system, &stats.energies, sys, en));
        if !matches {
            tally.fail(
                true,
                format!("job {job}: output differs from the serial reference"),
            );
        } else if stats.retries > 0
            || !stats.downgrades.is_empty()
            || !stats.stall_reports.is_empty()
        {
            tally.fail(
                false,
                format!(
                    "job {job}: {} retries, {} downgrades, {} stall reports (fallback path measured)",
                    stats.retries,
                    stats.downgrades.len(),
                    stats.stall_reports.len()
                ),
            );
        } else {
            tally.ok();
        }
    }
    spans.exit(window);
    lines.push(format!(
        "timed: {} jobs ({} traced), {} segments",
        plain.walls_ms.len() + with_trace.walls_ms.len(),
        with_trace.walls_ms.len(),
        plain.segment_ms.len() + with_trace.segment_ms.len()
    ));

    if !traced {
        // The timing figures come from the least-stolen rounds (see
        // `quiet_rounds`); each is the median of its value over consecutive
        // blocks of whole rounds (see `block_median`), so every block holds
        // every system equally.
        let steal: Vec<u64> = plain.rounds.iter().map(|r| r.steal).collect();
        let held: Vec<usize> = plain.rounds.iter().map(|r| r.segments.len()).collect();
        let kept = quiet_rounds(&steal, &held, P90_BLOCK);
        let gather = |all: &[f64], range: fn(&Round) -> Range<usize>| -> Vec<f64> {
            kept.iter()
                .flat_map(|&i| all[range(&plain.rounds[i])].iter().copied())
                .collect()
        };
        let seg = &gather(&plain.segment_ms, |r| r.segments.clone());
        let walls = &gather(&plain.walls_ms, |r| r.walls.clone());
        let rounds_of =
            |per_round: usize, at_least: usize| per_round * at_least.div_ceil(per_round);
        let p =
            |v: &[f64], q: f64, len: usize| block_median(v.len(), len, |r| percentile(&v[r], q));
        let job_ms = block_median(walls.len(), w.systems, |r| {
            walls[r.clone()].iter().sum::<f64>() / r.len() as f64
        });
        m.put("steps_per_s", job_steps as f64 * 1e3 / job_ms, "steps/s");
        m.put(
            "segment_ms_p50",
            p(seg, 50.0, rounds_of(w.systems, P50_BLOCK)),
            "ms",
        );
        m.put(
            "segment_ms_p90",
            p(seg, 90.0, rounds_of(w.systems, P90_BLOCK)),
            "ms",
        );
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        m.put("jobs_per_s", 1e3 / job_ms, "jobs/s");
        m.put(
            "turnaround_ms_p50",
            p(walls, 50.0, rounds_of(w.systems, P50_BLOCK)),
            "ms",
        );
        m.put(
            "turnaround_ms_p90",
            p(walls, 90.0, rounds_of(w.systems, P90_BLOCK)),
            "ms",
        );
        m.put("success_ratio", tally.success_ratio(), "ratio");
        lines.push(format!(
            "samples: {} segments, {} jobs, {} set-ups",
            seg.len(),
            walls.len(),
            setup_s.len()
        ));
        lines.push(format!(
            "host steal: {} ticks over {} rounds; figures from the {} least stolen",
            steal.iter().sum::<u64>(),
            steal.len(),
            kept.len()
        ));
        lines.push(format!(
            "pooled over all rounds: {:.3} steps/s, segment p50 {:.3} p90 {:.3} ms, \
             turnaround p50 {:.3} p90 {:.3} ms",
            plain.steps_per_s(),
            percentile(&plain.segment_ms, 50.0),
            percentile(&plain.segment_ms, 90.0),
            percentile(&plain.walls_ms, 50.0),
            percentile(&plain.walls_ms, 90.0)
        ));
        return Report {
            metrics: m,
            tally,
            lines,
            spans,
            trace: None,
        };
    }

    // Per-layer metrics, per rank and step, from the untraced jobs' phases.
    let rank_steps = (plain.steps * ranks) as f64;
    let (pairlist_ms, pairlist_builds) = phase(&plain.phases, "pairlist");
    let (nb_local_ms, _) = phase(&plain.phases, "nb_local");
    let (nb_halo_ms, _) = phase(&plain.phases, "nb_halo");
    let (pack_ms, _) = phase(&plain.phases, "pack");
    let (pack_overlap_ms, _) = phase(&plain.phases, "pack_overlap");
    let phases_ms: f64 = plain.phases.iter().map(|(_, d, _)| ms(d)).sum();
    let segments = (plain.steps / NSTLIST * ranks) as f64;
    m.put("md.pairlist_ms_per_step", pairlist_ms / rank_steps, "ms");
    m.put(
        "md.pairlist_builds_per_segment",
        pairlist_builds as f64 / segments,
        "count",
    );
    m.put(
        "md.nb_ms_per_step",
        (nb_local_ms + nb_halo_ms) / rank_steps,
        "ms",
    );
    m.put("md.minimize_s", median(&minimize_s), "s");
    m.put(
        "core.pack_ms_per_step",
        (pack_ms + pack_overlap_ms) / rank_steps,
        "ms",
    );
    m.put(
        "core.signal_wait_us_per_step",
        with_trace.wait_us as f64 / (with_trace.steps * ranks) as f64,
        "us",
    );
    m.put(
        "engine.untimed_ms_per_step",
        (plain.wall_s * 1e3 * ranks as f64 - phases_ms) / rank_steps,
        "ms",
    );
    m.put("engine.load_ratio", load_ratio(&plain.rank_loads), "ratio");
    let realloc: usize = engines.iter().map(|e| e.realloc_count).sum();
    m.put("engine.realloc_count", realloc as f64, "count");
    m.put(
        "engine.retries",
        (plain.retries + with_trace.retries) as f64,
        "count",
    );
    m.put(
        "engine.downgrades",
        (plain.downgrades + with_trace.downgrades) as f64,
        "count",
    );
    let untraced_rate = plain.steps_per_s();
    let traced_rate = with_trace.steps_per_s();
    m.put(
        "trace.overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "%",
    );
    m.put(
        "trace.events_per_step",
        with_trace.events as f64 / with_trace.steps as f64,
        "count",
    );
    m.put("trace.dropped", with_trace.dropped as f64, "count");
    m.put(
        "baseline.serial_steps_per_s",
        (job_steps * starts.len()) as f64 / ref_s,
        "steps/s",
    );

    let (start, reference) = (&starts[0], &references[0]);
    let (ref_sys, ref_energies) = reference
        .clone()
        .unwrap_or_else(|| (start.clone(), Vec::new()));
    let summary = probes::run(
        start,
        &cfg,
        (&ref_sys, &ref_energies),
        w.probe_builds,
        scratch,
        &mut spans,
        &mut m,
        &mut tally,
    );
    service_probe(
        start,
        &cfg,
        job_steps,
        reference.as_ref(),
        &mut spans,
        &mut m,
        &mut tally,
    );

    lines.push("gpusim (DGX-H100) beside the measured layers, per rank and step:".into());
    lines.push(format!(
        "  step      predicted {:>10.2} us   measured {:>10.2} us",
        summary.pred_step_us,
        1e6 / untraced_rate
    ));
    lines.push(format!(
        "  local nb  predicted {:>10.2} us   measured {:>10.2} us",
        summary.pred_local_us,
        nb_local_ms * 1e3 / rank_steps
    ));
    lines.push(format!(
        "  halo nb   predicted {:>10.2} us   measured {:>10.2} us (nb_halo + pack)",
        summary.pred_nonlocal_us,
        (nb_halo_ms + pack_ms + pack_overlap_ms) * 1e3 / rank_steps
    ));
    lines.push(format!(
        "  mpi/fused predicted {:>10.3}      measured {:>10.3} (one exchange round, probe)",
        summary.pred_fused_vs_mpi,
        summary.mpi_round_us / summary.fused_round_us
    ));
    Report {
        metrics: m,
        tally,
        lines,
        spans,
        trace: last_trace,
    }
}

/// The `serve` layer on an engine workload: a short closed loop of jobs on
/// the workload's own system, each checked against the same reference.
fn service_probe(
    start: &System,
    cfg: &EngineConfig,
    job_steps: usize,
    reference: Option<&(System, Vec<EnergyReport>)>,
    spans: &mut Spans,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    const JOBS: usize = 4;
    let id = spans.enter("serve.probe", 0);
    let mut svc = JobService::new(ServeConfig {
        pool_worlds: 2,
        workers: 1,
        slice_steps: NSTLIST,
        max_queue: 64,
        max_predicted_ms: None,
        max_reschedules: 8,
        machine: halox_gpusim::MachineModel::dgx_h100(),
    });
    let run = closed_loop(
        &svc,
        JOBS,
        |i| {
            (i < JOBS).then(|| Request {
                tag: 0,
                spec: JobSpec {
                    name: format!("probe-{i}"),
                    system: start.clone(),
                    grid: GRID,
                    config: cfg.clone(),
                    steps: job_steps,
                    priority: Priority::Normal,
                },
            })
        },
        |_, res| {
            reference.is_some_and(|(sys, en)| same_output(&res.system, &res.energies, sys, en))
        },
        spans,
    );
    svc.shutdown();
    let pool = svc.pool_stats();
    spans.exit(id);
    crate::serve::check_jobs(&run.finished, tally);
    run.put_serve_metrics(&pool, m);
}
